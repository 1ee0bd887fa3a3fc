"""Cross-layer oracle: fleet cascades replay the QSS schedule's cycles.

The QSS layer proves a schedulable net has, for every T-allocation, a
finite complete cycle: a firing sequence that returns the net to its
initial marking.  The fleet kernel knows nothing of schedules; it runs
each environment event to quiescence under the event's choices.  The
two layers must agree: sending one event per source-transition
occurrence of a cycle, in the cycle's sequence order and carrying the
cycle's allocation as choices, fires exactly the cycle's firing counts.
Those counts form a T-invariant, so the instance ends back at M0.  The
check runs on both kernel paths, the memo and ``memo=False``, over the
gallery, the application nets and every corpus net that has sources
and is schedulable.

A second oracle compares cycle costs.  The synthesized program, run by
``RTOS`` once per stream, and the fleet kernel with one task fire the
same transitions, so their totals differ only in control cost: the
kernel charges one test per firing, the program the tests, counter
updates and fragment calls it executes.  At zero control cost the two
totals are equal; under any cost model the program's total is the
fleet's, less one test per firing, plus its own control work, counted
from ``RTOS`` runs under one-hot cost models.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.apps import atm, heating, router
from repro.codegen import native_available, synthesize
from repro.gallery import figures
from repro.petrinet.corpus import generate_corpus
from repro.qss import analyse
from repro.runtime import (
    RTOS,
    CostModel,
    Event,
    FleetEngine,
    FleetSimulator,
    ModuleAssignment,
    as_columns,
)

NETS = {
    "atm": atm.build_atm_server_net,
    "router": router.build_router_net,
    "heating": heating.build_heating_net,
    "figure2": figures.figure2_sdf_chain,
    "figure3a": figures.figure3a_schedulable,
    "figure4": figures.figure4_weighted,
    "figure5": figures.figure5_two_inputs,
}

#: At least this many nets of ``generate_corpus(60, seed=0)`` have
#: source transitions and are schedulable (43 do), so a generator
#: change cannot silently empty the corpus case.
MIN_CORPUS_NETS = 40


def cycle_events(net, cycle):
    """One event per source occurrence of ``cycle``, in sequence order."""
    sources = set(net.source_transitions())
    choices = cycle.allocation.as_dict
    return [
        Event(time=float(k), source=transition, choices=dict(choices))
        for k, transition in enumerate(t for t in cycle.sequence if t in sources)
    ]


def fleet_firings(net, events, memo):
    """Firing counts of one instance served ``events`` one per round."""
    engine = FleetEngine(
        net, ModuleAssignment.single_task(net), instances=1, memo=memo
    )
    src_ids, sig_ids = engine.prepare_events(as_columns([events]))
    row = np.zeros(1, dtype=np.int64)
    for k in range(len(events)):
        engine.dispatch_ids(row, src_ids[k : k + 1], sig_ids[k : k + 1])
    return engine.aggregate_stats().firings


def assert_cascades_fire_cycles(net, report, label):
    """Every cycle of ``report`` replays exactly on both kernel paths."""
    assert report.schedulable and report.schedule.cycles, label
    for cycle in report.schedule.cycles:
        events = cycle_events(net, cycle)
        for memo in (True, False):
            firings = fleet_firings(net, events, memo)
            assert firings == dict(cycle.firing_counts), (label, str(cycle), memo)


@pytest.mark.parametrize("name", sorted(NETS))
def test_fleet_cascades_fire_each_qss_cycle(name):
    net = NETS[name]()
    assert_cascades_fire_cycles(net, analyse(net), name)


def test_fleet_cascades_fire_each_corpus_qss_cycle():
    """Every corpus net that has sources and is schedulable."""
    checked = 0
    for spec in generate_corpus(60, seed=0):
        net = spec.build()
        if not net.source_transitions():
            continue
        report = analyse(net)
        if report.schedulable:
            assert_cascades_fire_cycles(net, report, spec)
            checked += 1
    assert checked >= MIN_CORPUS_NETS


#: The applications and their fleet testbenches: 5 instances of 20
#: cells, packets or samples each.
APP_FLEETS = {
    "atm": (
        atm.build_atm_server_net,
        lambda: atm.make_fleet_testbench(5, cells=20, seed=7),
    ),
    "router": (
        router.build_router_net,
        lambda: router.make_fleet_testbench(5, packets=20, seed=7),
    ),
    "heating": (
        heating.build_heating_net,
        lambda: heating.make_fleet_testbench(5, samples=20, seed=7),
    ),
}

#: The control costs the kernel and the program charge differently.
CONTROL = ("test_cycles", "counter_cycles", "call_cycles")
NO_CONTROL = CostModel(**{name: 0 for name in CONTROL})


def one_hot(name):
    """A cost model charging 1 for ``name`` and 0 for everything else."""
    zero = {field.name: 0 for field in dataclasses.fields(CostModel)}
    return CostModel(**{**zero, name: 1})


def program_runs(program, streams, cost, engine):
    """Total cycles and firings of one ``RTOS`` run per stream, each
    starting from the initial marking."""
    rtos = RTOS(program, cost, engine=engine)
    total, firings = 0, {}
    for stream in streams:
        rtos.reset()
        stats = rtos.run(stream)
        total += stats.total_cycles
        for transition, count in stats.firings.items():
            firings[transition] = firings.get(transition, 0) + count
    return total, firings


def program_costs(program, streams, engine):
    """The program's totals under the default and zero-control cost
    models, and its tests, counter updates and calls."""
    costs = {
        "default": program_runs(program, streams, CostModel(), engine)[0],
        "no_control": program_runs(program, streams, NO_CONTROL, engine)[0],
    }
    for name in CONTROL:
        costs[name] = program_runs(program, streams, one_hot(name), engine)[0]
    return costs


@pytest.mark.parametrize(
    "engine",
    [
        "compiled",
        pytest.param(
            "native",
            marks=pytest.mark.skipif(
                not native_available(), reason="no C compiler on this machine"
            ),
        ),
    ],
)
@pytest.mark.parametrize("app", sorted(APP_FLEETS))
def test_program_cost_is_fleet_cost_plus_control(app, engine):
    build, testbench = APP_FLEETS[app]
    net = build()
    program = synthesize(analyse(net).schedule)
    streams = testbench()

    def fleet(cost):
        simulator = FleetSimulator(
            net, ModuleAssignment.single_task(net), cost_model=cost
        )
        return simulator.run(streams).stats

    costs = program_costs(program, streams, engine)
    if engine != "compiled":
        assert costs == program_costs(program, streams, "compiled")
    assert costs["no_control"] == fleet(NO_CONTROL).total_cycles
    default = CostModel()
    stats = fleet(default)
    assert program_runs(program, streams, default, engine)[1] == stats.firings
    firings = sum(stats.firings.values())
    expected = stats.total_cycles - default.test_cycles * firings
    for name in CONTROL:
        expected += getattr(default, name) * costs[name]
    assert costs["default"] == expected

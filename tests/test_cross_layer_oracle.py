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
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import atm, heating, router
from repro.gallery import figures
from repro.petrinet.corpus import generate_corpus
from repro.qss import analyse
from repro.runtime import Event, FleetEngine, ModuleAssignment, as_columns

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

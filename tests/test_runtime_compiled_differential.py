"""Differential suite for the compiled runtime substrate.

Pins the engine-equality contract of the runtime: the reactive
simulator, the RTOS/IR interpreter and the fleet simulator all take
``engine="compiled"`` / ``engine="legacy"`` and must produce
*identical* results — same :class:`ExecutionStats` field for field (total
cycles, breakdowns, per-task activations, per-transition firings), same
firing sequences, same per-instance cycle vectors — on the paper gallery,
the ATM case study and seeded corpus nets.  Also pins fleet determinism
under fixed seeds and the firing-budget policies.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.codegen import synthesize
from repro.gallery import paper_figures
from repro.petrinet import NetBuilder
from repro.petrinet.corpus import generate_corpus
from repro.qss import compute_valid_schedule
from repro.runtime import (
    RTOS,
    CostModel,
    Event,
    FleetSimulator,
    ModuleAssignment,
    ReactiveNetSimulator,
    synthetic_streams,
)
from repro.apps.atm import (
    MODULE_PARTITION,
    build_atm_server_net,
    make_fleet_testbench,
    make_testbench,
)


def gallery_nets():
    """Every paper figure net, instantiated, as ``(figure id, net)`` pairs."""
    return [(figure, build()) for figure, build in paper_figures().items()]


#: Per-event firing budget used when driving arbitrary generated nets:
#: corpus families include nets that never quiesce (token rings), so the
#: differential runs use the "stop" policy — which itself must behave
#: identically across engines.
BUDGET = 64


def stats_dict(stats) -> dict:
    return asdict(stats)


def run_both_reactive(net, assignment, stream, **kwargs):
    legacy = ReactiveNetSimulator(net, assignment, engine="legacy", **kwargs)
    compiled = ReactiveNetSimulator(net, assignment, engine="compiled", **kwargs)
    return legacy.run(stream), compiled.run(stream)


class TestReactiveEngines:
    @pytest.mark.parametrize(
        "figure,net", gallery_nets(), ids=[f for f, _ in gallery_nets()]
    )
    def test_gallery_stats_identical_single_task(self, figure, net):
        streams = synthetic_streams(net, 2, 12, seed=17)
        assignment = ModuleAssignment.single_task(net)
        for stream in streams:
            a, b = run_both_reactive(
                net,
                assignment,
                stream,
                max_firings_per_event=BUDGET,
                on_budget="stop",
            )
            assert stats_dict(a) == stats_dict(b)

    @pytest.mark.parametrize(
        "figure,net", gallery_nets(), ids=[f for f, _ in gallery_nets()]
    )
    def test_gallery_stats_identical_micro_tasks(self, figure, net):
        """One task per transition exercises every queue-crossing branch."""
        stream = synthetic_streams(net, 1, 10, seed=3)[0]
        assignment = ModuleAssignment.one_task_per_transition(net)
        a, b = run_both_reactive(
            net, assignment, stream, max_firings_per_event=BUDGET, on_budget="stop"
        )
        assert stats_dict(a) == stats_dict(b)

    def test_corpus_nets_stats_identical(self):
        for spec in generate_corpus(20, seed=11):
            net = spec.build()
            if not net.source_transitions():
                continue
            stream = synthetic_streams(net, 1, 15, seed=spec.seed)[0]
            a, b = run_both_reactive(
                net,
                ModuleAssignment.single_task(net),
                stream,
                max_firings_per_event=BUDGET,
                on_budget="stop",
            )
            assert stats_dict(a) == stats_dict(b), spec

    def test_atm_stats_identical_with_module_partition(self):
        net = build_atm_server_net()
        events = make_testbench(cells=10, seed=7)
        assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
        a, b = run_both_reactive(net, assignment, events)
        assert stats_dict(a) == stats_dict(b)
        assert a.queue_cycles > 0  # partition really crosses tasks

    def test_marking_and_reset_identical(self, fig5):
        assignment = ModuleAssignment.single_task(fig5)
        legacy = ReactiveNetSimulator(fig5, assignment, engine="legacy")
        compiled = ReactiveNetSimulator(fig5, assignment, engine="compiled")
        event = Event(time=0, source="t1", choices={"p1": "t2"})
        legacy.run([event])
        compiled.run([event])
        assert compiled.marking == legacy.marking
        compiled.reset()
        legacy.reset()
        assert compiled.marking == legacy.marking == fig5.initial_marking

    def test_compiled_accepts_precompiled_net(self, fig3a):
        compiled_view = fig3a.compile()
        simulator = ReactiveNetSimulator(
            compiled_view, ModuleAssignment.single_task(fig3a)
        )
        stats = simulator.run([Event(time=0, source="t1", choices={"p1": "t2"})])
        assert stats.firings == {"t1": 1, "t2": 1, "t4": 1}

    @pytest.mark.parametrize("engine", ["legacy", "compiled"])
    def test_budget_error_policy_raises(self, engine):
        net = _spinning_net()
        simulator = ReactiveNetSimulator(
            net,
            ModuleAssignment.single_task(net),
            max_firings_per_event=10,
            engine=engine,
        )
        with pytest.raises(RuntimeError, match="did not quiesce"):
            simulator.run([Event(time=0, source="t_src")])

    def test_budget_stop_policy_identical(self):
        net = _spinning_net()
        a, b = run_both_reactive(
            net,
            ModuleAssignment.single_task(net),
            [Event(time=0, source="t_src"), Event(time=1, source="t_src")],
            max_firings_per_event=10,
            on_budget="stop",
        )
        assert stats_dict(a) == stats_dict(b)
        assert a.budget_stops == 2

    def test_unknown_engine_rejected(self, fig3a):
        with pytest.raises(ValueError, match="unknown engine"):
            ReactiveNetSimulator(
                fig3a, ModuleAssignment.single_task(fig3a), engine="quantum"
            )
        with pytest.raises(ValueError, match="unknown budget policy"):
            ReactiveNetSimulator(
                fig3a, ModuleAssignment.single_task(fig3a), on_budget="never"
            )


def _spinning_net():
    """A source feeding a self-sustaining loop: never quiesces."""
    return (
        NetBuilder("spinner")
        .source("t_src")
        .arc("t_src", "p_fuel")
        .arc("p_fuel", "t_spin")
        .arc("t_spin", "p_fuel")
        .build()
    )


class TestRtosEngines:
    @pytest.mark.parametrize("figure", ["fig3a", "fig5"])
    def test_gallery_programs_identical(self, figure, request):
        net = request.getfixturevalue(figure)
        program = synthesize(compute_valid_schedule(net))
        events = [
            Event(time=0.0, source="t1", choices={"p1": "t2"}),
            Event(time=1.0, source="t1", choices={"p1": "t3"}),
        ]
        if figure == "fig5":
            events.append(Event(time=2.0, source="t8"))
        legacy = RTOS(program, engine="legacy").run(events)
        compiled = RTOS(program, engine="compiled").run(events)
        assert stats_dict(legacy) == stats_dict(compiled)

    def test_atm_program_identical(self, atm_report):
        from repro.qss import partition_tasks  # noqa: F401 - schedule sanity

        program = synthesize(atm_report.schedule)
        events = make_testbench(cells=10, seed=5)
        model = CostModel(activation_cycles=333)
        legacy = RTOS(program, model, engine="legacy").run(events)
        compiled = RTOS(program, model, engine="compiled").run(events)
        assert stats_dict(legacy) == stats_dict(compiled)
        assert legacy.events_processed == len(events)

    def test_counters_and_reset_identical(self, fig3a):
        program = synthesize(compute_valid_schedule(fig3a))
        legacy = RTOS(program, engine="legacy")
        compiled = RTOS(program, engine="compiled")
        event = Event(time=0, source="t1", choices={"p1": "t2"})
        legacy.run([event])
        compiled.run([event])
        for name in legacy.executor.tasks:
            assert (
                legacy.executor.tasks[name].counters
                == compiled.executor.tasks[name].counters
            )
        legacy.reset()
        compiled.reset()
        for name in legacy.executor.tasks:
            assert (
                legacy.executor.tasks[name].counters
                == compiled.executor.tasks[name].counters
            )


class TestFleetEngines:
    def test_fleet_matches_per_instance_reactive(self):
        net = build_atm_server_net()
        assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
        streams = make_fleet_testbench(6, cells=4, seed=99)
        fleet = FleetSimulator(net, assignment).run(streams)
        simulator = ReactiveNetSimulator(net, assignment, engine="legacy")
        for i, stream in enumerate(streams):
            simulator.reset()
            stats = simulator.run(stream)
            assert fleet.instance_cycles[i] == stats.total_cycles
            assert fleet.instance_events[i] == stats.events_processed

    def test_fleet_engines_identical_on_atm(self):
        net = build_atm_server_net()
        assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
        streams = make_fleet_testbench(10, cells=4, seed=42)
        legacy = FleetSimulator(net, assignment, engine="legacy").run(streams)
        compiled = FleetSimulator(net, assignment, engine="compiled").run(streams)
        assert stats_dict(legacy.stats) == stats_dict(compiled.stats)
        assert np.array_equal(legacy.instance_cycles, compiled.instance_cycles)
        assert np.array_equal(legacy.instance_events, compiled.instance_events)

    def test_fleet_engines_identical_on_corpus(self):
        for spec in generate_corpus(12, seed=23):
            net = spec.build()
            if not net.source_transitions():
                continue
            streams = synthetic_streams(net, 4, 10, seed=spec.seed)
            kwargs = dict(max_firings_per_event=BUDGET, on_budget="stop")
            assignment = ModuleAssignment.single_task(net)
            legacy = FleetSimulator(
                net, assignment, engine="legacy", **kwargs
            ).run(streams)
            compiled = FleetSimulator(
                net, assignment, engine="compiled", **kwargs
            ).run(streams)
            assert stats_dict(legacy.stats) == stats_dict(compiled.stats), spec
            assert np.array_equal(
                legacy.instance_cycles, compiled.instance_cycles
            ), spec

    def test_fleet_deterministic_under_fixed_seed(self):
        net = build_atm_server_net()
        assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
        first = FleetSimulator(net, assignment).run(
            make_fleet_testbench(8, cells=3, seed=5)
        )
        second = FleetSimulator(net, assignment).run(
            make_fleet_testbench(8, cells=3, seed=5)
        )
        assert stats_dict(first.stats) == stats_dict(second.stats)
        assert np.array_equal(first.instance_cycles, second.instance_cycles)
        different = FleetSimulator(net, assignment).run(
            make_fleet_testbench(8, cells=3, seed=6)
        )
        assert not np.array_equal(first.instance_cycles, different.instance_cycles)

    def test_fleet_budget_policies(self):
        net = _spinning_net()
        streams = [[Event(time=0, source="t_src")] for _ in range(3)]
        assignment = ModuleAssignment.single_task(net)
        with pytest.raises(RuntimeError, match="did not quiesce"):
            FleetSimulator(
                net, assignment, max_firings_per_event=8
            ).run(streams)
        kwargs = dict(max_firings_per_event=8, on_budget="stop")
        legacy = FleetSimulator(net, assignment, engine="legacy", **kwargs).run(
            streams
        )
        compiled = FleetSimulator(
            net, assignment, engine="compiled", **kwargs
        ).run(streams)
        assert stats_dict(legacy.stats) == stats_dict(compiled.stats)
        assert compiled.stats.budget_stops == 3

    def test_fleet_result_summaries(self):
        net = build_atm_server_net()
        result = FleetSimulator(
            net, ModuleAssignment.single_task(net)
        ).run(make_fleet_testbench(4, cells=2, seed=1))
        percentiles = result.percentiles()
        assert set(percentiles) == {"p50", "p90", "p95", "p99"}
        assert percentiles["p50"] <= percentiles["p99"]
        text = result.describe()
        assert "fleet of 4 instance(s)" in text
        assert "per-instance cycles" in text
        assert result.throughput_eps > 0

    def test_empty_fleet(self):
        net = build_atm_server_net()
        result = FleetSimulator(net, ModuleAssignment.single_task(net)).run([])
        assert result.instances == 0
        assert result.stats.events_processed == 0
        assert result.percentile(95) == 0.0

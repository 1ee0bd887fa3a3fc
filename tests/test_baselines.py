"""Unit tests for the baseline implementations."""

from __future__ import annotations

import pytest

from repro.baselines import (
    QUEUE_BOILERPLATE_LINES,
    TASK_BOILERPLATE_LINES,
    build_dynamic_implementation,
    build_functional_implementation,
    inter_module_queues,
    is_applicable,
    synthesize_single_task,
)
from repro.gallery import figure3a_schedulable, figure4_weighted, figure5_two_inputs
from repro.petrinet import NetBuilder
from repro.runtime import CostModel, Event


FIG5_MODULES = {
    "front": ["t1", "t2", "t3", "t4", "t5"],
    "back": ["t6", "t7"],
    "aux": ["t8", "t9"],
}


class TestFunctionalPartitioning:
    def test_task_count_matches_modules(self, fig5):
        impl = build_functional_implementation(fig5, FIG5_MODULES)
        assert impl.task_count == 3
        assert {t.name for t in impl.program.tasks} == {
            "task_front", "task_back", "task_aux",
        }

    def test_queues_are_cross_module_places(self, fig5):
        queues = inter_module_queues(fig5, FIG5_MODULES)
        places = {q[2] for q in queues}
        assert "p4" in places  # t4/t9 -> p4 -> t6 crosses front/aux -> back
        assert "p1" not in places

    def test_incomplete_partition_rejected(self, fig5):
        with pytest.raises(ValueError):
            build_functional_implementation(fig5, {"only": ["t1"]})

    def test_lines_of_code_exceed_raw_emission(self, fig5):
        impl = build_functional_implementation(fig5, FIG5_MODULES)
        from repro.codegen import emit_c

        assert impl.lines_of_code() > emit_c(impl.program).lines_of_code

    def test_lines_of_code_counts_task_and_queue_boilerplate(self, fig5):
        from repro.codegen import emit_c

        impl = build_functional_implementation(fig5, FIG5_MODULES)
        assert impl.task_count == 3 and impl.queues
        assert impl.lines_of_code() == (
            emit_c(impl.program).lines_of_code
            + TASK_BOILERPLATE_LINES * 3
            + QUEUE_BOILERPLATE_LINES * len(impl.queues)
        )

    def test_execution_charges_queue_crossings(self, fig5):
        impl = build_functional_implementation(fig5, FIG5_MODULES)
        stats = impl.run([Event(time=0, source="t1", choices={"p1": "t2"})])
        assert stats.queue_cycles > 0
        assert stats.firings["t1"] == 1

    def test_more_modules_cost_more_cycles(self, fig5):
        events = [
            Event(time=0, source="t1", choices={"p1": "t2"}),
            Event(time=1, source="t8", choices={}),
        ]
        coarse = build_functional_implementation(
            fig5, {"all": list(fig5.transition_names)}
        ).run(events)
        fine = build_functional_implementation(fig5, FIG5_MODULES).run(events)
        assert fine.total_cycles > coarse.total_cycles


class TestDynamicBaseline:
    def test_task_per_transition(self, fig3a):
        impl = build_dynamic_implementation(fig3a)
        assert impl.task_count == len(fig3a.transition_names)
        assert impl.lines_of_code() > impl.task_count

    def test_dynamic_slower_than_functional(self, fig5):
        events = [
            Event(time=0, source="t1", choices={"p1": "t2"}),
            Event(time=1, source="t8", choices={}),
        ]
        functional = build_functional_implementation(fig5, FIG5_MODULES).run(events)
        dynamic = build_dynamic_implementation(fig5).run(events)
        assert dynamic.total_cycles > functional.total_cycles

    def test_cost_model_override(self, fig3a):
        impl = build_dynamic_implementation(fig3a)
        event = [Event(time=0, source="t1", choices={"p1": "t2"})]
        cheap = impl.run(event, CostModel(activation_cycles=1))
        costly = impl.run(event, CostModel(activation_cycles=1000))
        assert costly.total_cycles > cheap.total_cycles


class TestLinSafeBaseline:
    def test_open_nets_rejected(self, fig3a, fig4):
        for net in (fig3a, fig4):
            result = is_applicable(net)
            assert not result.applicable
            assert any("source/sink" in reason for reason in result.reasons)

    def test_weighted_arcs_rejected(self):
        net = (
            NetBuilder("weighted_closed")
            .transition("a")
            .transition("b")
            .place("p1", tokens=2)
            .place("p2")
            .arc("p1", "a", weight=2)
            .arc("a", "p2")
            .arc("p2", "b")
            .arc("b", "p1", weight=2)
            .build()
        )
        result = is_applicable(net)
        assert not result.applicable
        assert any("weighted" in reason for reason in result.reasons)

    def test_safe_closed_net_synthesized(self):
        net = (
            NetBuilder("safe_ring")
            .transition("a")
            .transition("b")
            .place("p1", tokens=1)
            .place("p2")
            .arc("p1", "a")
            .arc("a", "p2")
            .arc("p2", "b")
            .arc("b", "p1")
            .build()
        )
        result = synthesize_single_task(net)
        assert result.applicable
        assert result.sequence == ["a", "b"]
        assert "length 2" in result.explain()

    def test_unsafe_net_rejected(self):
        net = (
            NetBuilder("unsafe")
            .transition("a")
            .transition("b")
            .place("p1", tokens=2)
            .place("p2")
            .arc("p1", "a")
            .arc("a", "p2")
            .arc("p2", "b")
            .arc("b", "p1")
            .build()
        )
        result = is_applicable(net)
        assert not result.applicable
        assert any("1-bounded" in reason for reason in result.reasons)

    def test_deadlocking_safe_net_reported(self):
        net = (
            NetBuilder("dead")
            .transition("a")
            .place("p1", tokens=1)
            .place("p2")
            .arc("p1", "a")
            .arc("a", "p2")
            .build()
        )
        result = synthesize_single_task(net)
        assert not result.applicable
        assert any("deadlock" in reason for reason in result.reasons)

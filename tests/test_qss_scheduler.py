"""Unit tests for schedulability checking, valid schedules and tasks."""

from __future__ import annotations

import pytest

from repro.gallery import (
    figure1b_not_free_choice,
    figure3a_schedulable,
    figure3b_unschedulable,
    figure4_weighted,
    figure5_two_inputs,
    figure7_unschedulable,
)
from repro.petrinet import NetBuilder, is_finite_complete_cycle
from repro.petrinet.exceptions import NotFreeChoiceError, NotSchedulableError
from repro.qss import (
    TAllocation,
    analyse,
    check_reduction,
    compute_valid_schedule,
    enumerate_reductions,
    is_schedulable,
    partition_tasks,
    reduce_net,
)


class TestSchedulabilityVerdicts:
    def test_paper_verdicts(self, fig3a, fig3b, fig4, fig5, fig7):
        assert is_schedulable(fig3a)
        assert not is_schedulable(fig3b)
        assert is_schedulable(fig4)
        assert is_schedulable(fig5)
        assert not is_schedulable(fig7)

    def test_conflict_free_net_is_schedulable(self, fig2):
        assert is_schedulable(fig2)

    def test_figure7_reductions_inconsistent(self, fig7):
        for reduction in enumerate_reductions(fig7):
            verdict = check_reduction(fig7, reduction)
            assert not verdict.schedulable
            assert not verdict.consistent
            assert verdict.uncovered_transitions
            assert verdict.source_places
            assert "NOT schedulable" in verdict.explain()

    def test_figure3b_source_not_covered(self, fig3b):
        reduction = reduce_net(fig3b, TAllocation.from_mapping({"p1": "t2"}))
        verdict = check_reduction(fig3b, reduction)
        assert not verdict.consistent
        assert "t1" in verdict.uncovered_sources

    def test_schedulable_verdict_carries_cycle(self, fig3a):
        for reduction in enumerate_reductions(fig3a):
            verdict = check_reduction(fig3a, reduction)
            assert verdict.schedulable
            assert verdict.cycle is not None
            assert is_finite_complete_cycle(reduction.net, verdict.cycle)
            assert "schedulable" in verdict.explain()

    def test_deadlocked_reduction_detected(self):
        """Consistent but unable to fire: a cycle with no initial tokens."""
        net = (
            NetBuilder("deadlock")
            .transition("a")
            .transition("b")
            .place("p1")
            .place("p2")
            .arc("a", "p1")
            .arc("p1", "b")
            .arc("b", "p2")
            .arc("p2", "a")
            .build()
        )
        report = analyse(net)
        assert not report.schedulable
        verdict = report.verdicts[0]
        assert verdict.consistent
        assert verdict.deadlocked

    def test_non_free_choice_rejected(self):
        with pytest.raises(NotFreeChoiceError):
            analyse(figure1b_not_free_choice())


class TestValidSchedules:
    def test_figure3a_schedule_matches_paper(self, fig3a):
        schedule = compute_valid_schedule(fig3a)
        sequences = {cycle.sequence for cycle in schedule.cycles}
        assert sequences == {("t1", "t2", "t4"), ("t1", "t3", "t5")}
        assert schedule.verify()

    def test_figure4_schedule_counts_match_paper(self, fig4):
        """The paper's cycles are (t1 t2 t1 t2 t4) and (t1 t3 t5 t5)."""
        schedule = compute_valid_schedule(fig4)
        counts = [cycle.counts for cycle in schedule.cycles]
        assert {"t1": 2, "t2": 2, "t4": 1} in counts
        assert {"t1": 1, "t3": 1, "t5": 2} in counts
        assert schedule.verify()

    def test_figure5_schedule_counts_match_paper(self, fig5):
        schedule = compute_valid_schedule(fig5)
        counts = [cycle.counts for cycle in schedule.cycles]
        assert {"t1": 1, "t2": 1, "t4": 2, "t6": 5, "t8": 1, "t9": 1} in counts
        assert {"t1": 1, "t3": 1, "t5": 1, "t7": 2, "t6": 1, "t8": 1, "t9": 1} in counts

    def test_every_cycle_contains_every_source(self, fig5):
        schedule = compute_valid_schedule(fig5)
        for cycle in schedule.cycles:
            assert cycle.contains("t1")
            assert cycle.contains("t8")

    def test_unschedulable_raises_with_explanation(self, fig7):
        with pytest.raises(NotSchedulableError) as excinfo:
            compute_valid_schedule(fig7)
        assert "NOT quasi-statically schedulable" in str(excinfo.value)

    def test_buffer_bounds_from_schedule(self, fig4):
        schedule = compute_valid_schedule(fig4)
        bounds = schedule.max_buffer_bounds()
        assert bounds["p2"] == 2
        assert bounds["p3"] == 2

    def test_report_explain_and_counts(self, fig5):
        report = analyse(fig5)
        assert report.allocation_count == 2
        assert report.reduction_count == 2
        assert "schedulable" in report.explain()

    def test_describe_lists_cycles(self, fig3a):
        text = compute_valid_schedule(fig3a).describe()
        assert "finite complete cycle" in text
        assert "t2" in text


class TestTaskPartitioning:
    def test_one_task_per_source(self, fig5):
        partition = partition_tasks(compute_valid_schedule(fig5))
        assert partition.task_count == len(fig5.source_transitions()) == 2

    def test_shared_transition_detected(self, fig5):
        partition = partition_tasks(compute_valid_schedule(fig5))
        cell = partition.task_for_source("t1")
        tick = partition.task_for_source("t8")
        assert "t6" in cell.transitions
        assert "t6" in tick.transitions
        assert "t6" in cell.shared_transitions
        assert "t2" in cell.transitions and "t2" not in tick.transitions

    def test_rate_groups_merge_sources(self, fig5):
        partition = partition_tasks(
            compute_valid_schedule(fig5), rate_groups=[["t1", "t8"]]
        )
        assert partition.task_count == 1
        assert set(partition.tasks[0].source_transitions) == {"t1", "t8"}

    def test_task_names(self, fig5):
        partition = partition_tasks(
            compute_valid_schedule(fig5), task_names={"t1": "cell", "t8": "tick"}
        )
        names = {task.name for task in partition.tasks}
        assert names == {"cell", "tick"}

    @pytest.mark.parametrize(
        "kwargs,offender",
        [
            ({"rate_groups": [["t1"], ["t1"]]}, "'t1' is named twice"),
            ({"task_names": {"t1": "x", "t8": "x"}}, "task name 'x'"),
            ({"rate_groups": [["t2"]]}, "names 't2', which is not a source"),
            ({"rate_groups": [[]]}, "empty rate group"),
            ({"rate_groups": [["t_nonexistent"]]}, "names 't_nonexistent'"),
        ],
        ids=[
            "source_twice",
            "task_name_twice",
            "internal_transition",
            "empty_group",
            "unknown_transition",
        ],
    )
    def test_bad_grouping_or_names_rejected(self, fig5, kwargs, offender):
        """Duplicate task names or sources would emit C that gcc rejects
        (redefined counters); an internal trigger breaks one task per
        source; all are refused up front, naming the offender."""
        schedule = compute_valid_schedule(fig5)
        with pytest.raises(ValueError, match=offender):
            partition_tasks(schedule, **kwargs)

    def test_unknown_source_raises(self, fig5):
        partition = partition_tasks(compute_valid_schedule(fig5))
        with pytest.raises(KeyError):
            partition.task_for_source("t2")

    def test_describe(self, fig5):
        text = partition_tasks(compute_valid_schedule(fig5)).describe()
        assert "2 task(s)" in text

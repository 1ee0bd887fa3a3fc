"""Unit tests for T-allocations and T-reductions (repro.qss)."""

from __future__ import annotations

import pytest

from repro.gallery import (
    figure1b_not_free_choice,
    figure3a_schedulable,
    figure3b_unschedulable,
    figure5_two_inputs,
    figure7_unschedulable,
)
from repro.petrinet import NetBuilder, is_conflict_free
from repro.petrinet.exceptions import NotFreeChoiceError
from repro.qss import (
    TAllocation,
    count_allocations,
    count_distinct_reductions,
    enumerate_allocations,
    enumerate_reductions,
    reduce_net,
)
from repro.qss.reduction import ReductionStep


class TestAllocations:
    def test_figure5_has_two_allocations(self, fig5):
        allocations = list(enumerate_allocations(fig5))
        assert len(allocations) == 2
        assert count_allocations(fig5) == 2
        chosen = {a.chosen("p1") for a in allocations}
        assert chosen == {"t2", "t3"}

    def test_allocation_sets_match_paper_figure5(self, fig5):
        """A1 = {t1,t2,t4,t5,t6,t7,t8,t9}, A2 = {t1,t3,t4,t5,t6,t7,t8,t9}."""
        by_choice = {
            a.chosen("p1"): a.allocated_transitions(fig5)
            for a in enumerate_allocations(fig5)
        }
        everything = set(fig5.transition_names)
        assert by_choice["t2"] == frozenset(everything - {"t3"})
        assert by_choice["t3"] == frozenset(everything - {"t2"})

    def test_net_without_choices_has_single_allocation(self, fig2):
        allocations = list(enumerate_allocations(fig2))
        assert len(allocations) == 1
        assert allocations[0].choices == ()

    def test_non_free_choice_rejected(self):
        with pytest.raises(NotFreeChoiceError):
            list(enumerate_allocations(figure1b_not_free_choice()))

    def test_validate_allocation(self, fig3a, fig5, fig7):
        # each allocation resolves every choice place, and only those, to
        # one of its successors, and drops exactly the other successors
        for net in (fig3a, fig5, fig7):
            choice_places = net.choice_places()
            for allocation in enumerate_allocations(net):
                mapping = allocation.as_dict
                assert sorted(mapping) == sorted(choice_places)
                dropped = set()
                for place, transition in mapping.items():
                    successors = net.postset_names(place)
                    assert transition in successors
                    dropped |= set(successors) - {transition}
                assert allocation.allocated_transitions(net) == frozenset(
                    set(net.transition_names) - dropped
                )

    def test_allocation_str(self):
        assert "p1->t2" in str(TAllocation.from_mapping({"p1": "t2"}))


class TestReductionAlgorithm:
    def test_figure5_reduction_r1_matches_figure6(self, fig5):
        """Figure 6 walks the removal of t3, p3, t5, p5, p6, t7."""
        allocation = TAllocation.from_mapping({"p1": "t2"})
        trace = []
        reduction = reduce_net(fig5, allocation, trace=trace)
        assert set(reduction.net.transition_names) == {
            "t1", "t2", "t4", "t6", "t8", "t9",
        }
        assert set(reduction.net.place_names) == {"p1", "p2", "p4", "p7"}
        assert set(reduction.removed_transitions) == {"t3", "t5", "t7"}
        assert set(reduction.removed_places) == {"p3", "p5", "p6"}
        # the trace is ordered: t3 goes first (it is the unallocated one)
        assert trace[0] == ReductionStep(
            action="remove-transition", node="t3", reason="not in the T-allocation"
        )

    def test_figure5_reduction_r2(self, fig5):
        allocation = TAllocation.from_mapping({"p1": "t3"})
        reduction = reduce_net(fig5, allocation)
        assert set(reduction.net.transition_names) == {
            "t1", "t3", "t5", "t7", "t6", "t8", "t9",
        }

    def test_reductions_are_conflict_free(self, fig5, fig3a, fig7):
        for net in (fig5, fig3a, fig7):
            for reduction in enumerate_reductions(net):
                assert is_conflict_free(reduction.net)

    def test_figure7_keeps_source_place(self, fig7):
        """Condition (b).ii of the Reduction Algorithm: the starved place is
        kept so the inconsistency of the reduction remains detectable."""
        reduction = reduce_net(fig7, TAllocation.from_mapping({"p1": "t2"}))
        assert "p5" in reduction.net.place_names
        assert reduction.net.preset("p5") == {}
        assert "p5" in reduction.source_places()
        other = reduce_net(fig7, TAllocation.from_mapping({"p1": "t3"}))
        assert "p4" in other.source_places()

    def test_figure3b_keeps_source_place(self, fig3b):
        reduction = reduce_net(fig3b, TAllocation.from_mapping({"p1": "t2"}))
        assert "p3" in reduction.net.place_names
        assert "t4" in reduction.net.transition_names

    def test_figure3a_reductions_are_plain_chains(self, fig3a):
        reduction = reduce_net(fig3a, TAllocation.from_mapping({"p1": "t2"}))
        assert set(reduction.net.transition_names) == {"t1", "t2", "t4"}
        assert set(reduction.net.place_names) == {"p1", "p2"}

    def test_source_transitions_survive_every_reduction(self, fig5):
        for reduction in enumerate_reductions(fig5):
            assert set(fig5.source_transitions()) <= set(
                reduction.net.transition_names
            )

    def test_initial_marking_restricted_to_surviving_places(self):
        net = (
            NetBuilder("marked_choice")
            .place("p_c", tokens=1)
            .arc("p_c", "t_a")
            .arc("p_c", "t_b")
            .arc("t_a", "p_a")
            .arc("p_a", "t_a2")
            .arc("t_a2", "p_c")
            .arc("t_b", "p_b")
            .arc("p_b", "t_b2")
            .arc("t_b2", "p_c")
            .build()
        )
        reduction = reduce_net(net, TAllocation.from_mapping({"p_c": "t_a"}))
        assert reduction.net.initial_marking["p_c"] == 1


class TestEnumeration:
    def test_deduplication_counts(self, fig5, fig3a):
        assert count_distinct_reductions(fig5) == 2
        assert count_distinct_reductions(fig3a) == 2

    def test_duplicate_allocations_collapse(self):
        """A choice nested inside a discarded branch does not multiply the
        number of distinct reductions."""
        net = (
            NetBuilder("nested")
            .source("t_in")
            .arc("t_in", "p_outer")
            .arc("p_outer", "t_stop")
            .arc("t_stop", "p_done")
            .arc("p_done", "t_done")
            .arc("p_outer", "t_go")
            .arc("t_go", "p_inner")
            .arc("p_inner", "t_left")
            .arc("p_inner", "t_right")
            .arc("t_left", "p_l")
            .arc("p_l", "t_l_done")
            .arc("t_right", "p_r")
            .arc("p_r", "t_r_done")
            .build()
        )
        assert count_allocations(net) == 4
        assert count_distinct_reductions(net) == 3
        per_allocation = [reduce_net(net, a) for a in enumerate_allocations(net)]
        assert len(per_allocation) == 4
        assert len({r.signature() for r in per_allocation}) == 3

    def test_signatures_identify_equal_reductions(self, fig5):
        reductions = [reduce_net(fig5, a) for a in enumerate_allocations(fig5)]
        signatures = {r.signature() for r in reductions}
        assert len(signatures) == 2

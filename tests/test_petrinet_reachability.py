"""Unit tests for reachability, boundedness, deadlock and liveness analysis."""

from __future__ import annotations

import pytest

from repro.gallery import figure2_sdf_chain, figure3b_unschedulable
from repro.petrinet.generators import pipeline_net
from repro.petrinet import (
    Marking,
    NetBuilder,
    build_reachability_graph,
    coverability_analysis,
    find_deadlocks,
    is_bounded,
    is_k_bounded,
    is_live,
    is_reachable,
    is_safe,
    place_bounds,
)


def bounded_cycle_net():
    """A live, safe ring: t_a and t_b alternate forever."""
    return (
        NetBuilder("ring")
        .transition("t_a")
        .transition("t_b")
        .place("p1", tokens=1)
        .place("p2")
        .arc("p1", "t_a")
        .arc("t_a", "p2")
        .arc("p2", "t_b")
        .arc("t_b", "p1")
        .build()
    )


class TestReachabilityGraph:
    def test_ring_graph_has_two_markings(self):
        graph = build_reachability_graph(bounded_cycle_net())
        assert len(graph.markings) == 2
        assert len(graph.edges) == 2
        assert graph.complete
        assert graph.deadlock_markings() == []

    def test_is_reachable(self):
        net = bounded_cycle_net()
        assert is_reachable(net, Marking({"p2": 1}))
        assert not is_reachable(net, Marking({"p1": 1, "p2": 1}))

    def test_exploration_limit_marks_incomplete(self, fig2):
        # figure 2 has a source transition, so its reachability set is infinite
        graph = build_reachability_graph(fig2, max_markings=10)
        assert not graph.complete
        assert len(graph.markings) == 10

    def test_successors(self):
        graph = build_reachability_graph(bounded_cycle_net())
        assert graph.successors(0) == [("t_a", 1)]


class TestBoundedness:
    def test_ring_is_safe_and_bounded(self):
        net = bounded_cycle_net()
        assert is_bounded(net)
        assert is_safe(net)
        assert is_k_bounded(net, 1)

    def test_source_fed_chain_is_unbounded(self, fig2):
        result = coverability_analysis(fig2)
        assert not result.bounded
        assert "p1" in result.unbounded_places

    def test_figure3b_unbounded(self, fig3b):
        result = coverability_analysis(fig3b)
        assert not result.bounded
        assert set(result.unbounded_places) >= {"p2", "p3"}

    def test_k_bounded_with_two_tokens(self):
        net = (
            NetBuilder("two")
            .transition("t_a")
            .transition("t_b")
            .place("p1", tokens=2)
            .place("p2")
            .arc("p1", "t_a")
            .arc("t_a", "p2")
            .arc("p2", "t_b")
            .arc("t_b", "p1")
            .build()
        )
        assert is_bounded(net)
        assert is_k_bounded(net, 2)
        assert not is_safe(net)

    def test_place_bounds(self):
        bounds = place_bounds(bounded_cycle_net())
        assert bounds == {"p1": 1, "p2": 1}

    def test_place_bounds_unbounded_is_none(self, fig2):
        bounds = place_bounds(fig2)
        assert bounds["p1"] is None


class TestDeadlockAndLiveness:
    def test_ring_is_deadlock_free_and_live(self):
        net = bounded_cycle_net()
        assert find_deadlocks(net) == []
        assert is_live(net)

    def test_terminating_net_deadlocks(self):
        net = (
            NetBuilder("finite")
            .place("p1", tokens=1)
            .arc("p1", "t1")
            .arc("t1", "p2")
            .arc("p2", "t2")
            .build()
        )
        deadlocks = find_deadlocks(net)
        assert deadlocks == [Marking()]
        assert not is_live(net)

    def test_deadlock_free_but_not_live(self):
        # t_dead can never fire (its input place is never marked) but the
        # ring part keeps running, so the net is deadlock-free yet not live.
        net = bounded_cycle_net()
        net.add_place("p_never")
        net.add_transition("t_dead")
        net.add_arc("p_never", "t_dead")
        net.add_arc("t_dead", "p_never")
        assert find_deadlocks(net) == []
        assert not is_live(net)

    def test_liveness_requires_complete_graph(self, fig2):
        with pytest.raises(RuntimeError):
            is_live(fig2, max_markings=5)

    @pytest.mark.parametrize("engine", ["compiled", "legacy"])
    def test_truncated_exploration_reports_no_false_deadlock(self, engine):
        # the source keeps every marking live; the markings past the cap
        # were never expanded, which must not make them deadlocks
        net = pipeline_net(3, rates=[1, 1, 1])
        assert find_deadlocks(net, max_markings=50, engine=engine) == []

    @pytest.mark.parametrize("engine", ["compiled", "legacy"])
    def test_truncated_exploration_keeps_real_deadlocks(self, engine):
        # ``t_pump`` grows ``q`` without bound; ``t_stop`` empties ``p``
        # and leaves a dead marking for every count of ``q``
        net = (
            NetBuilder("pump_or_stop")
            .place("p", tokens=1)
            .place("q")
            .arc("p", "t_pump")
            .arc("t_pump", "p")
            .arc("t_pump", "q")
            .arc("p", "t_stop")
            .build()
        )
        deadlocks = find_deadlocks(net, max_markings=50, engine=engine)
        assert deadlocks[:3] == [Marking(), Marking({"q": 1}), Marking({"q": 2})]
        assert all(not net.enabled_transitions(m) for m in deadlocks)

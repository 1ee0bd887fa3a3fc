"""Unit tests for the SDF substrate (graphs, balance equations, schedules)."""

from __future__ import annotations

import pytest

from repro.gallery import figure2_sdf_chain
from repro.petrinet import is_marked_graph, t_invariants
from repro.sdf import (
    DeadlockError,
    InconsistentSDFError,
    SDFError,
    SDFGraph,
    compact_schedule,
    petri_to_sdf,
    repetition_vector,
    sdf_to_petri,
    simulate_schedule,
    static_schedule,
    total_buffer_requirement,
)


def figure2_graph() -> SDFGraph:
    """The Figure 2 chain as an SDF graph: rates 1->2 and 1->2."""
    graph = SDFGraph("figure2")
    graph.add_actor("t1")
    graph.add_actor("t2")
    graph.add_actor("t3")
    graph.add_edge("t1", "t2", production=1, consumption=2)
    graph.add_edge("t2", "t3", production=1, consumption=2)
    return graph


def cyclic_graph(delays: int) -> SDFGraph:
    graph = SDFGraph("cycle")
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_edge("a", "b")
    graph.add_edge("b", "a", initial_tokens=delays)
    return graph


class TestGraphModel:
    def test_duplicate_actor_rejected(self):
        graph = SDFGraph()
        graph.add_actor("a")
        with pytest.raises(SDFError):
            graph.add_actor("a")

    def test_edge_to_unknown_actor_rejected(self):
        graph = SDFGraph()
        graph.add_actor("a")
        with pytest.raises(SDFError):
            graph.add_edge("a", "missing")

    def test_invalid_rates_rejected(self):
        graph = SDFGraph()
        graph.add_actor("a")
        graph.add_actor("b")
        with pytest.raises(SDFError):
            graph.add_edge("a", "b", production=0)
        with pytest.raises(SDFError):
            graph.add_edge("a", "b", initial_tokens=-1)

    def test_sources_sinks_connectivity(self):
        graph = figure2_graph()
        assert graph.sources() == ["t1"]
        assert graph.sinks() == ["t3"]
        assert graph.is_connected()

    def test_in_out_edges(self):
        graph = figure2_graph()
        assert len(graph.in_edges("t2")) == 1
        assert len(graph.out_edges("t2")) == 1


class TestBalance:
    def test_figure2_repetition_vector(self):
        assert repetition_vector(figure2_graph()) == {"t1": 4, "t2": 2, "t3": 1}

    def test_repetition_vector_is_minimal(self):
        graph = SDFGraph()
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_edge("a", "b", production=2, consumption=4)
        assert repetition_vector(graph) == {"a": 2, "b": 1}

    def test_inconsistent_graph_detected(self):
        graph = SDFGraph()
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_edge("a", "b", production=2, consumption=3)
        graph.add_edge("a", "b", production=1, consumption=1)
        with pytest.raises(InconsistentSDFError):
            repetition_vector(graph)

    def test_empty_graph_rejected(self):
        with pytest.raises(SDFError):
            repetition_vector(SDFGraph())

    def test_disconnected_components_normalized_independently(self):
        graph = SDFGraph()
        for name in ("a", "b", "c", "d"):
            graph.add_actor(name)
        graph.add_edge("a", "b", production=1, consumption=2)
        graph.add_edge("c", "d", production=3, consumption=1)
        assert repetition_vector(graph) == {"a": 2, "b": 1, "c": 1, "d": 3}

    def test_iteration_token_change_is_zero(self):
        # one iteration of the repetition vector balances every channel
        graph = figure2_graph()
        graph.add_actor("t4")
        graph.add_edge("t3", "t4", production=3, consumption=2)
        graph.add_edge("t1", "t4", production=3, consumption=8)
        q = repetition_vector(graph)
        assert q == {"t1": 8, "t2": 4, "t3": 2, "t4": 3}
        for edge in graph.edges:
            produced = edge.production * q[edge.source]
            assert produced == edge.consumption * q[edge.target], edge.channel_name


class TestScheduling:
    def test_pass_matches_paper_figure2(self):
        schedule = static_schedule(figure2_graph())
        assert schedule.repetition == {"t1": 4, "t2": 2, "t3": 1}
        counts = {a: schedule.sequence.count(a) for a in {"t1", "t2", "t3"}}
        assert counts == schedule.repetition

    def test_buffer_bounds_and_cost(self):
        graph = figure2_graph()
        schedule = static_schedule(graph)
        assert total_buffer_requirement(schedule) >= 2
        assert schedule.cost == 4 + 2 + 1  # unit actor costs

    def test_cycle_needs_delays(self):
        with pytest.raises(DeadlockError):
            static_schedule(cyclic_graph(0))
        assert static_schedule(cyclic_graph(1)).sequence

    def test_token_free_loop_deadlock_names_blocked_actors(self):
        with pytest.raises(DeadlockError) as excinfo:
            simulate_schedule(cyclic_graph(0))
        assert str(excinfo.value) == (
            "SDF graph 'cycle' deadlocks with actors still to fire: ['a', 'b']"
        )

    def test_multirate_chain_with_delay(self):
        """The exact PASS of a chain whose rates do not divide evenly."""
        graph = SDFGraph("chain")
        graph.add_actor("a", cost=2)
        graph.add_actor("b", cost=1)
        graph.add_actor("c", cost=3)
        graph.add_edge("a", "b", production=2, consumption=3)
        graph.add_edge("b", "c", production=1, consumption=2, initial_tokens=1)
        schedule = static_schedule(graph)
        assert schedule.sequence == ["a", "a", "a", "b", "b", "c"]
        assert schedule.buffer_bounds == {"a->b": 6, "b->c": 3}
        assert schedule.repetition == {"a": 3, "b": 2, "c": 1}
        assert schedule.cost == 11

    def test_simulate_schedule_custom_repetition(self):
        graph = figure2_graph()
        sequence, bounds = simulate_schedule(graph, {"t1": 8, "t2": 4, "t3": 2})
        assert len(sequence) == 14
        assert bounds["t1->t2"] >= 2

    def test_looped_schedule_round_trip(self):
        schedule = static_schedule(figure2_graph())
        looped = compact_schedule(schedule.sequence)
        assert looped.flatten() == schedule.sequence
        assert "(" in str(looped)

    def test_iterations(self):
        schedule = static_schedule(figure2_graph())
        assert schedule.iterations(3) == list(schedule.sequence) * 3


class TestConversion:
    def test_sdf_to_petri_matches_figure2(self):
        net = sdf_to_petri(figure2_graph())
        assert is_marked_graph(net)
        assert t_invariants(net) == [{"t1": 4, "t2": 2, "t3": 1}]

    def test_petri_to_sdf_round_trip(self):
        graph = figure2_graph()
        back = petri_to_sdf(sdf_to_petri(graph))
        assert repetition_vector(back) == repetition_vector(graph)

    def test_petri_to_sdf_keeps_delays(self):
        graph = cyclic_graph(2)
        back = petri_to_sdf(sdf_to_petri(graph))
        assert static_schedule(back).sequence  # still schedulable

    def test_petri_to_sdf_rejects_conflicts(self, fig3a):
        with pytest.raises(SDFError):
            petri_to_sdf(fig3a)

    def test_petri_figure2_gallery_net_converts(self, fig2):
        graph = petri_to_sdf(fig2)
        assert repetition_vector(graph) == {"t1": 4, "t2": 2, "t3": 1}

    def test_petri_figure2_gallery_net_schedule(self, fig2):
        """The PASS of Figure 2 converted from its Petri net, exactly."""
        schedule = static_schedule(petri_to_sdf(fig2))
        assert schedule.sequence == ["t1"] * 4 + ["t2"] * 2 + ["t3"]
        assert schedule.buffer_bounds == {"p1": 4, "p2": 2}
        assert schedule.cost == 7

    def test_costs_preserved(self):
        graph = SDFGraph()
        graph.add_actor("a", cost=9)
        graph.add_actor("b", cost=2)
        graph.add_edge("a", "b")
        net = sdf_to_petri(graph)
        assert net.transition("a").cost == 9
        back = petri_to_sdf(net)
        assert back.actor("a").cost == 9

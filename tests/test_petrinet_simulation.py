"""Unit tests for token-game simulation (repro.petrinet.simulation)."""

from __future__ import annotations

import pytest

from repro.gallery import figure2_sdf_chain, figure3b_unschedulable, figure4_weighted
from repro.petrinet import (
    Marking,
    NetBuilder,
    Simulator,
    find_finite_complete_cycle,
    find_firing_sequence,
    fire_sequence,
    is_finite_complete_cycle,
    make_adversarial_policy,
    make_random_policy,
    policy_first_enabled,
)
from repro.petrinet.exceptions import NotEnabledError


class TestSequences:
    def test_fire_sequence(self, fig2):
        result = fire_sequence(fig2, ["t1", "t1"])
        assert result == Marking({"p1": 2})

    def test_fire_sequence_blocks(self, fig2):
        with pytest.raises(NotEnabledError):
            fire_sequence(fig2, ["t2"])

    def test_is_fireable(self, fig2):
        # t2 takes two tokens from p1 (the weight-2 arc)
        assert fire_sequence(fig2, ["t1", "t1", "t2"]) == Marking({"p2": 1})
        with pytest.raises(NotEnabledError):
            fire_sequence(fig2, ["t1", "t2"])

    def test_finite_complete_cycle_figure2(self, fig2):
        cycle = ["t1"] * 4 + ["t2"] * 2 + ["t3"]
        assert is_finite_complete_cycle(fig2, cycle)
        assert not is_finite_complete_cycle(fig2, ["t1"])
        # the interleaved order from the paper's Figure 2 also works
        assert is_finite_complete_cycle(
            fig2, ["t1", "t1", "t2", "t1", "t1", "t2", "t3"]
        )

    def test_finite_complete_cycle_custom_marking(self, fig2):
        marking = Marking({"p1": 4, "p2": 2})
        cycle = ["t2", "t2", "t3", "t1", "t1", "t1", "t1"]
        assert is_finite_complete_cycle(fig2, cycle, marking)
        assert not is_finite_complete_cycle(fig2, ["t2", "t1", "t1"], marking)


class TestConstrainedSearch:
    def test_find_firing_sequence_orders_invariant(self, fig2):
        sequence = find_firing_sequence(fig2, {"t1": 4, "t2": 2, "t3": 1})
        assert sequence is not None
        assert sorted(sequence) == sorted(["t1"] * 4 + ["t2"] * 2 + ["t3"])
        assert is_finite_complete_cycle(fig2, sequence)

    def test_find_firing_sequence_empty_counts(self, fig2):
        assert find_firing_sequence(fig2, {}) == []

    def test_find_firing_sequence_impossible(self, fig2):
        # t3 needs two tokens in p2 which a single t2 firing cannot provide
        assert find_firing_sequence(fig2, {"t2": 1, "t3": 1}) is None

    def test_find_finite_complete_cycle(self, fig4):
        cycle = find_finite_complete_cycle(fig4, {"t1": 2, "t2": 2, "t4": 1})
        assert cycle is not None
        assert is_finite_complete_cycle(fig4, cycle)

    def test_find_finite_complete_cycle_rejects_non_stationary(self, fig4):
        assert find_finite_complete_cycle(fig4, {"t1": 1}) is None

    def test_search_needs_backtracking(self):
        # two tokens must go down distinct branches: a greedy choice of the
        # same branch twice dead-ends, exercising the backtracking path.
        net = (
            NetBuilder("backtrack")
            .place("p0", tokens=2)
            .arc("p0", "ta")
            .arc("p0", "tb")
            .arc("ta", "pa")
            .arc("tb", "pb")
            .arc("pa", "tj")
            .arc("pb", "tj")
            .arc("tj", "p0", weight=2)
            .build()
        )
        counts = {"ta": 1, "tb": 1, "tj": 1}
        sequence = find_firing_sequence(net, counts)
        assert sequence is not None
        assert is_finite_complete_cycle(net, sequence)


class TestSimulator:
    def test_first_enabled_policy_is_deterministic(self, fig2):
        trace_a = Simulator(fig2, policy=policy_first_enabled).run(10)
        trace_b = Simulator(fig2, policy=policy_first_enabled).run(10)
        assert trace_a.fired == trace_b.fired

    def test_random_policy_reproducible(self, fig4):
        trace_a = Simulator(fig4, policy=make_random_policy(3)).run(30)
        trace_b = Simulator(fig4, policy=make_random_policy(3)).run(30)
        assert trace_a.fired == trace_b.fired

    def test_trace_markings_track_firings(self, fig2):
        trace = Simulator(fig2).run(3)
        assert len(trace.markings) == len(trace.fired) + 1
        assert trace.markings[0] == fig2.initial_marking

    def test_deadlock_detection(self):
        net = NetBuilder("dead").place("p1", tokens=1).arc("p1", "t1").build()
        trace = Simulator(net).run(5)
        assert trace.fired == ["t1"]
        assert trace.deadlocked

    def test_adversarial_policy_grows_tokens(self, fig3b):
        # always resolving the choice towards t2 starves p3's branch and
        # accumulates tokens in p2 (the unbounded behaviour of Figure 3b)
        adversary = make_adversarial_policy(["t2", "t1"])
        trace = Simulator(fig3b, policy=adversary).run(100)
        assert trace.max_tokens().get("p2", 0) >= 40
        assert "t3" not in trace.fired

    def test_firing_counts(self, fig2):
        trace = Simulator(fig2).run(7)
        counts = trace.firing_counts()
        assert sum(counts.values()) == len(trace.fired)

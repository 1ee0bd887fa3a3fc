"""Unit tests for incidence matrices, the state equation and invariants."""

from __future__ import annotations

import numpy as np

from repro.gallery import (
    figure2_sdf_chain,
    figure3a_schedulable,
    figure3b_unschedulable,
    figure5_two_inputs,
)
from repro.petrinet import (
    Marking,
    NetBuilder,
    combine_invariants,
    fast_minimal_semiflows,
    incidence_matrices,
    t_invariants,
)


def firing_vector(matrices, counts):
    """A ``{transition: count}`` mapping as a row vector over the
    matrices' transitions."""
    vector = np.zeros(len(matrices.transitions), dtype=np.int64)
    index = matrices.transition_index
    for transition, count in counts.items():
        vector[index[transition]] = count
    return vector


def marking_vector(matrices, marking):
    """A marking as a column vector aligned with the matrices' places."""
    return np.array([marking[p] for p in matrices.places], dtype=np.int64)


def marking_from_vector(matrices, vector):
    """A place-aligned vector back as a :class:`Marking`."""
    return Marking({p: int(vector[i]) for i, p in enumerate(matrices.places)})


def place_invariants(net):
    """The minimal-support S-invariants of ``net``: the semiflows of the
    transposed incidence matrix, as ``{place: weight}`` mappings."""
    matrices = incidence_matrices(net)
    return [
        {p: int(vector[i]) for i, p in enumerate(matrices.places) if vector[i]}
        for vector in fast_minimal_semiflows(matrices.incidence.T)
    ]


def covers_every_place(net):
    """Conservativeness: the place invariants' supports cover every place."""
    covered = set()
    for invariant in place_invariants(net):
        covered |= set(invariant)
    return covered == set(net.place_names)


class TestIncidence:
    def test_matrix_shapes_and_entries(self, fig2):
        matrices = incidence_matrices(fig2)
        assert matrices.pre.shape == (3, 2)
        t = matrices.transition_index
        p = matrices.place_index
        assert matrices.post[t["t1"], p["p1"]] == 1
        assert matrices.pre[t["t2"], p["p1"]] == 2
        assert matrices.incidence[t["t2"], p["p1"]] == -2
        assert matrices.incidence[t["t2"], p["p2"]] == 1

    def test_firing_vector_round_trip(self, fig2):
        matrices = incidence_matrices(fig2)
        counts = {"t1": 4, "t3": 1}
        vector = firing_vector(matrices, counts)
        assert matrices.counts_from_vector(vector) == counts

    def test_marking_vector_round_trip(self, fig2):
        matrices = incidence_matrices(fig2)
        marking = Marking({"p1": 3})
        assert marking_from_vector(matrices, marking_vector(matrices, marking)) == marking

    def test_state_equation_application(self, fig2):
        # firing t1 four times puts 4 tokens in p1: M' = M + f . D
        matrices = incidence_matrices(fig2)
        start = marking_vector(matrices, Marking())
        change = firing_vector(matrices, {"t1": 4}) @ matrices.incidence
        assert marking_from_vector(matrices, start + change) == Marking({"p1": 4})

    def test_stationary_firing_count(self, fig2):
        matrices = incidence_matrices(fig2)
        repetition = firing_vector(matrices, {"t1": 4, "t2": 2, "t3": 1})
        assert not np.any(repetition @ matrices.incidence)
        assert np.any(firing_vector(matrices, {"t1": 1}) @ matrices.incidence)

    def test_marking_change(self, fig2):
        matrices = incidence_matrices(fig2)
        change = firing_vector(matrices, {"t1": 2}) @ matrices.incidence
        assert change.tolist() == [2, 0]
        assert list(matrices.places) == ["p1", "p2"]
        cycle = firing_vector(matrices, {"t1": 4, "t2": 2, "t3": 1})
        assert (cycle @ matrices.incidence).tolist() == [0, 0]


class TestTInvariants:
    def test_figure2_repetition_vector(self, fig2):
        assert t_invariants(fig2) == [{"t1": 4, "t2": 2, "t3": 1}]

    def test_figure3a_two_minimal_invariants(self, fig3a):
        invariants = t_invariants(fig3a)
        assert {"t1": 1, "t2": 1, "t4": 1} in invariants
        assert {"t1": 1, "t3": 1, "t5": 1} in invariants
        assert len(invariants) == 2

    def test_figure3b_single_invariant(self, fig3b):
        # the paper quotes f = (2, 1, 1, 1): both branches must fire
        assert t_invariants(fig3b) == [{"t1": 2, "t2": 1, "t3": 1, "t4": 1}]

    def test_invariants_are_stationary(self, fig5):
        matrices = incidence_matrices(fig5)
        for invariant in t_invariants(fig5):
            change = firing_vector(matrices, invariant) @ matrices.incidence
            assert not np.any(change)

    def test_consistency(self, fig3a, fig3b, fig5):
        # every transition lies in the support of some minimal T-invariant
        for net in (fig3a, fig3b, fig5):
            covered = set()
            for invariant in t_invariants(net):
                covered |= set(invariant)
            assert covered == set(net.transition_names), net.name

    def test_inconsistent_net(self):
        # a transition that only produces can never be covered
        net = NetBuilder("inconsistent").source("t1").arc("t1", "p1").build()
        assert t_invariants(net) == []

    def test_empty_net_is_consistent(self):
        net = NetBuilder("empty").build()
        matrices = incidence_matrices(net)
        assert matrices.incidence.shape == (0, 0)
        assert t_invariants(net) == []

    def test_invariants_containing(self, fig3a):
        containing_t2 = [inv for inv in t_invariants(fig3a) if "t2" in inv]
        assert len(containing_t2) == 1
        assert "t4" in containing_t2[0]
        assert "t3" not in containing_t2[0]

    def test_combine_invariants(self):
        combined = combine_invariants([{"a": 1, "b": 2}, {"b": 1, "c": 3}])
        assert combined == {"a": 1, "b": 3, "c": 3}

    def test_minimal_positive_invariant(self, fig3a):
        # the sum of the minimal invariants is a positive invariant
        positive = combine_invariants(t_invariants(fig3a))
        assert set(positive) == set(fig3a.transition_names)
        assert all(count > 0 for count in positive.values())
        matrices = incidence_matrices(fig3a)
        assert not np.any(firing_vector(matrices, positive) @ matrices.incidence)


class TestSInvariants:
    def test_ring_has_place_invariant(self):
        net = (
            NetBuilder("ring")
            .transition("a")
            .transition("b")
            .place("p1", tokens=1)
            .place("p2")
            .arc("a", "p1")
            .arc("p1", "b")
            .arc("b", "p2")
            .arc("p2", "a")
            .build()
        )
        assert {"p1": 1, "p2": 1} in place_invariants(net)
        assert covers_every_place(net)

    def test_chain_is_not_conservative(self, fig2):
        # the source t1 creates tokens, so no weighting of p1, p2 is conserved
        assert place_invariants(fig2) == []
        assert not covers_every_place(fig2)

    def test_weighted_place_invariant(self):
        # b puts 2 tokens into p1 for each p2 token it takes; a reverses it
        net = (
            NetBuilder("weighted")
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
        assert {"p1": 1, "p2": 2} in place_invariants(net)
        assert covers_every_place(net)

"""Property-based tests tying the algebraic and behavioural layers together.

Seeded randomness only (``random.Random``), no extra dependencies:

* S-invariants (place invariants), the minimal semiflows of the
  transposed incidence matrix (:func:`repro.petrinet.fast_minimal_semiflows`),
  must be conserved along random firing sequences executed on the
  compiled engine — the algebra and the compiled token game must agree.
* On nets whose reachability graph is finite, the place bounds reported
  by Karp–Miller coverability must equal the exact maxima over all
  reachable markings.
* Boundedness verdicts must agree with exhaustive exploration: bounded
  nets explore completely, unbounded nets keep producing fresh markings
  until any cap.
"""

from __future__ import annotations

import random

import pytest

from repro.gallery import figure1a_free_choice, figure2_sdf_chain
from repro.petrinet import (
    build_reachability_graph,
    coverability_analysis,
    fast_minimal_semiflows,
    incidence_matrices,
    is_bounded,
    place_bounds,
)
from repro.petrinet.generators import (
    fork_join_pipeline,
    producer_consumer_ring,
    random_free_choice_net,
    random_marked_graph,
    unbalanced_choice_net,
)

SEEDS = range(15)
WALK_STEPS = 300


def s_invariants(net):
    """The minimal-support S-invariants (place invariants) of ``net``."""
    matrices = incidence_matrices(net)
    invariants = [
        {p: int(vector[i]) for i, p in enumerate(matrices.places) if vector[i]}
        for vector in fast_minimal_semiflows(matrices.incidence.T)
    ]
    invariants.sort(key=lambda inv: sorted(inv.items()))
    return invariants


def _random_compiled_walk(net, seed, steps=WALK_STEPS):
    """Yield every marking tuple along a random compiled firing sequence."""
    compiled = net.compile()
    rng = random.Random(seed)
    marking = compiled.initial
    yield compiled, marking
    for _ in range(steps):
        enabled = compiled.enabled_transitions(marking)
        if not enabled:
            break
        marking = compiled.fire_unchecked(rng.choice(enabled), marking)
        yield compiled, marking


def _bounded_nets():
    for seed in SEEDS:
        yield f"mg_{seed}", random_marked_graph(seed)
    yield "pcr_1x1", producer_consumer_ring(1, 1)
    yield "pcr_2x3", producer_consumer_ring(2, 3)
    yield "pcr_4x2", producer_consumer_ring(4, 2)
    yield "fj_closed", fork_join_pipeline(3, 2, closed=True)
    yield "fig1a", figure1a_free_choice()


BOUNDED = list(_bounded_nets())
BOUNDED_IDS = [case_id for case_id, _ in BOUNDED]


class TestPInvariantConservation:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_marked_graph_invariants_conserved_on_compiled_walks(self, seed):
        net = random_marked_graph(seed)
        invariants = s_invariants(net)
        assert invariants, "a strongly connected marked graph has S-invariants"
        self._check_conserved(net, invariants, seed)

    @pytest.mark.parametrize("stations,capacity", [(1, 1), (2, 2), (3, 1), (4, 3)])
    def test_producer_consumer_credit_invariants(self, stations, capacity):
        net = producer_consumer_ring(stations, capacity)
        invariants = s_invariants(net)
        # one buffer+credit invariant per station, each summing to capacity
        assert len(invariants) == stations
        for invariant in invariants:
            assert sorted(invariant.values()) == [1, 1]
        self._check_conserved(net, invariants, seed=stations * 31 + capacity)

    def _check_conserved(self, net, invariants, seed):
        walk = _random_compiled_walk(net, seed)
        compiled, initial = next(walk)
        weight_vectors = [
            [invariant.get(place, 0) for place in compiled.places]
            for invariant in invariants
        ]
        expected = [
            sum(w * tokens for w, tokens in zip(weights, initial))
            for weights in weight_vectors
        ]
        steps = 0
        for compiled, marking in walk:
            steps += 1
            for weights, value in zip(weight_vectors, expected):
                assert (
                    sum(w * tokens for w, tokens in zip(weights, marking)) == value
                ), f"invariant violated after {steps} firings"
        assert steps > 0, "the walk should fire at least one transition"


class TestPlaceBoundsExact:
    @pytest.mark.parametrize("case_id,net", BOUNDED, ids=BOUNDED_IDS)
    def test_coverability_bounds_equal_reachable_maxima(self, case_id, net):
        graph = build_reachability_graph(net, max_markings=20_000)
        assert graph.complete, "bounded family nets must explore completely"
        exact = {
            place: max(marking[place] for marking in graph.markings)
            for place in net.place_names
        }
        bounds = place_bounds(net)
        assert None not in bounds.values()
        assert bounds == exact

    @pytest.mark.parametrize("case_id,net", BOUNDED, ids=BOUNDED_IDS)
    def test_bounded_nets_never_accelerate(self, case_id, net):
        # on a bounded net the Karp-Miller tree cannot accelerate, so its
        # node set is exactly the reachable marking set
        result = coverability_analysis(net)
        graph = build_reachability_graph(net, max_markings=20_000)
        assert result.bounded
        assert result.node_count == len(graph.markings)


class TestBoundednessVsExhaustive:
    @pytest.mark.parametrize("case_id,net", BOUNDED, ids=BOUNDED_IDS)
    def test_bounded_nets_explore_completely(self, case_id, net):
        assert is_bounded(net)
        assert build_reachability_graph(net, max_markings=20_000).complete

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unbounded_nets_exhaust_any_cap(self, seed):
        # source transitions make these nets unbounded: coverability must
        # say so, and exhaustive exploration must keep finding fresh
        # markings until the cap
        net = random_free_choice_net(seed, n_choices=2, max_branch_length=2)
        assert not is_bounded(net)
        assert not build_reachability_graph(net, max_markings=1_500).complete

    @pytest.mark.parametrize("seed", range(5))
    def test_unbalanced_merge_is_unbounded(self, seed):
        net = unbalanced_choice_net(seed, merge=True)
        result = coverability_analysis(net)
        assert not result.bounded
        assert result.unbounded_places
        assert not build_reachability_graph(net, max_markings=1_500).complete

    def test_figure2_sdf_chain_unbounded_under_free_firing(self):
        # the paper's multirate chain has a source, so free firing is
        # unbounded even though QSS schedules it with bounded buffers
        net = figure2_sdf_chain()
        result = coverability_analysis(net)
        assert not result.bounded
        assert "p1" in result.unbounded_places


class TestTruncatedCoverabilityIsHonest:
    def test_complete_flag_reflects_the_cap(self):
        net = random_marked_graph(2)
        full = coverability_analysis(net)
        assert full.complete
        truncated = coverability_analysis(net, max_nodes=2)
        assert not truncated.complete
        assert truncated.node_count == 2

    def test_boundedness_helpers_decide_when_the_construction_finishes(self):
        # KM terminates on both of these (omega acceleration makes the
        # unbounded tree finite), so the helpers must answer, not raise
        assert is_bounded(random_marked_graph(2)) is True
        assert is_bounded(random_free_choice_net(0, n_choices=1)) is False

    def test_place_bounds_raise_on_truncation(self, monkeypatch):
        from repro.petrinet import reachability

        net = random_marked_graph(2)
        original = reachability.coverability_analysis

        def truncated(*args, **kwargs):
            kwargs["max_nodes"] = 2
            return original(*args, **kwargs)

        monkeypatch.setattr(reachability, "coverability_analysis", truncated)
        with pytest.raises(RuntimeError):
            place_bounds(net)

    def test_corpus_record_leaves_capped_boundedness_undecided(self):
        from repro.petrinet.corpus import CORPUS_FAMILIES, analyse_spec

        spec = CORPUS_FAMILIES["random_marked_graph"].spec(2)
        # a bounded net truncated before any omega shows up: the record
        # must say "undecided", not "bounded"
        record = analyse_spec(spec, max_nodes=2, max_markings=50)
        assert record.coverability_complete is False
        assert record.bounded is None
        assert record.max_place_bound is None
        # omega places found before the cap stay a definitive verdict
        merge_spec = CORPUS_FAMILIES["unschedulable_merge"].spec(0)
        record = analyse_spec(merge_spec, max_nodes=100, max_markings=50)
        assert record.bounded is False
        assert record.unbounded_places

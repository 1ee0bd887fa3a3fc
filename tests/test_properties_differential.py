"""Differential tests: compiled vs legacy property engines must agree.

Every behavioural property that was ported to the compiled engine in
this layer — Karp–Miller coverability (boundedness, unbounded places,
node counts, place bounds), deadlock detection, liveness — is checked
here against the legacy dict-based engine on the whole paper gallery and
on seeded instances of the random generator families.  The two engines
are written to expand the same state spaces in the same order, so the
comparison is exact equality, not just verdict agreement.
"""

from __future__ import annotations

import pytest

from repro.gallery import paper_figures
from repro.petrinet import (
    build_reachability_graph,
    coverability_analysis,
    find_deadlocks,
    is_bounded,
    is_live,
    place_bounds,
)
from repro.petrinet.generators import (
    fork_join_pipeline,
    producer_consumer_ring,
    random_free_choice_net,
    random_marked_graph,
    unbalanced_choice_net,
)


def gallery_nets():
    """Every paper figure net, instantiated, as ``(figure id, net)`` pairs."""
    return [(figure, build()) for figure, build in paper_figures().items()]


SEEDS = range(25)

#: Exploration caps: small enough to keep unbounded nets affordable,
#: large enough that every bounded net in the sweep is explored exactly.
MAX_NODES = 600
MAX_MARKINGS = 800


def _cases():
    for figure, net in gallery_nets():
        yield figure, net
    for seed in SEEDS:
        yield f"random_fc_{seed}", random_free_choice_net(
            seed, n_choices=2, max_branch_length=2
        )
        yield f"random_mg_{seed}", random_marked_graph(seed)
    # a few members of the new families for structural variety
    for seed in range(5):
        yield f"unbalanced_{seed}", unbalanced_choice_net(seed, merge=seed % 2 == 0)
    yield "pcr", producer_consumer_ring(3, 2)
    yield "fork_join", fork_join_pipeline(3, 2, closed=True)


CASES = list(_cases())
CASE_IDS = [case_id for case_id, _ in CASES]


@pytest.mark.parametrize("case_id,net", CASES, ids=CASE_IDS)
class TestCoverabilityDifferential:
    def test_coverability_results_identical(self, case_id, net):
        compiled = coverability_analysis(net, max_nodes=MAX_NODES, engine="compiled")
        legacy = coverability_analysis(net, max_nodes=MAX_NODES, engine="legacy")
        assert compiled.bounded == legacy.bounded
        assert compiled.unbounded_places == legacy.unbounded_places
        assert compiled.node_count == legacy.node_count
        assert compiled.place_bounds == legacy.place_bounds
        assert compiled.complete == legacy.complete

    def test_boundedness_verdicts_agree(self, case_id, net):
        assert is_bounded(net, engine="compiled") == is_bounded(net, engine="legacy")

    def test_place_bounds_identical(self, case_id, net):
        assert place_bounds(net, engine="compiled") == place_bounds(
            net, engine="legacy"
        )


@pytest.mark.parametrize("case_id,net", CASES, ids=CASE_IDS)
class TestReachabilityDifferential:
    def test_deadlock_sets_identical(self, case_id, net):
        compiled = find_deadlocks(net, max_markings=MAX_MARKINGS, engine="compiled")
        legacy = find_deadlocks(net, max_markings=MAX_MARKINGS, engine="legacy")
        # both engines explore in the same BFS order, so even the list
        # order (not just the set) must match
        assert compiled == legacy

    def test_liveness_verdicts_agree(self, case_id, net):
        graph = build_reachability_graph(net, max_markings=MAX_MARKINGS)
        if graph.complete:
            assert is_live(
                net, max_markings=MAX_MARKINGS, engine="compiled"
            ) == is_live(net, max_markings=MAX_MARKINGS, engine="legacy")
        else:
            # liveness is only decided on complete graphs: both engines
            # must refuse identically
            for engine in ("compiled", "legacy"):
                with pytest.raises(RuntimeError):
                    is_live(net, max_markings=MAX_MARKINGS, engine=engine)


class TestCompiledNetInput:
    """The compiled path also accepts pre-compiled nets directly."""

    def test_coverability_on_compiled_net(self):
        net = random_marked_graph(3)
        compiled_view = net.compile()
        direct = coverability_analysis(compiled_view)
        via_petri = coverability_analysis(net, engine="legacy")
        assert direct.bounded == via_petri.bounded
        assert direct.place_bounds == via_petri.place_bounds

    def test_legacy_engine_rejects_compiled_net(self):
        compiled_view = random_marked_graph(3).compile()
        with pytest.raises(ValueError):
            coverability_analysis(compiled_view, engine="legacy")

    def test_place_bounds_and_liveness_on_compiled_net(self):
        net = producer_consumer_ring(2, 2)
        compiled_view = net.compile()
        assert place_bounds(compiled_view) == place_bounds(net, engine="legacy")
        assert is_live(compiled_view) is True

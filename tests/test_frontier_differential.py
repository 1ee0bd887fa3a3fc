"""Differential suite for the frontier-batched state-space exploration.

Pins the compiled engine's batched exploration
(:mod:`repro.petrinet.frontier`) against the legacy oracle, the exact
fallback explorer and the compiled Karp–Miller construction on the
paper gallery plus seeded nets from every corpus family:

* reachability graphs are **bit-identical** to legacy's (same marking
  list, same edge list, same ``complete`` flag — the batched BFS
  reproduces the legacy node numbering exactly, including the
  ``max_markings`` cutoff point), and the hashed explorer's raw arrays
  equal the exact explorer's;
* coverability/boundedness verdicts, place bounds and node counts are
  identical to Karp–Miller's (bounded-prefix fast path on bounded nets,
  clean deferral to Karp–Miller on unbounded or oversized ones, and
  straight to Karp–Miller for nets with an output-producing source);
* deadlock, liveness and reachability queries agree with legacy;
* a compiled corpus run reports exactly the legacy QSS analysis, and
  every cycle it reports is a genuine finite complete cycle;
* ``engine="frontier"`` is an unknown engine at every entry point.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.gallery import paper_figures
from repro.petrinet import (
    CompiledNet,
    Marking,
    PetriNet,
    ReachabilityGraph,
    build_reachability_graph,
    compile_net,
    coverability_analysis,
    find_deadlocks,
    find_finite_complete_cycle,
    find_firing_sequence,
    is_finite_complete_cycle,
    is_live,
    is_reachable,
    place_bounds,
    save_net,
)
from repro.petrinet.corpus import (
    CORPUS_FAMILIES,
    NetSpec,
    analyse_spec,
    generate_corpus,
    run_corpus,
)
from repro.petrinet.frontier import (
    _explore_exact,
    _HashDisagreement,
    explore_frontier,
)
from repro.petrinet.reachability import _coverability_analysis_compiled
from repro.petrinet.generators import pipeline_net, producer_consumer_ring
from repro.petrinet.structure import is_free_choice
from repro.qss import (
    analyse,
    check_compiled_reduction,
    check_reduction,
    compute_valid_schedule,
    count_distinct_reductions,
    enumerate_reductions,
    is_schedulable,
    iter_compiled_reductions,
)

SEEDS_PER_FAMILY = 10
GRAPH_CAP = 300
COVERABILITY_CAP = 500

GALLERY = sorted(paper_figures())
FAMILY_CASES = [
    (family, seed)
    for family in sorted(CORPUS_FAMILIES)
    for seed in range(SEEDS_PER_FAMILY)
]


def _family_net(family: str, seed: int) -> PetriNet:
    return CORPUS_FAMILIES[family].spec(seed).build()


def _adversarial_arc_order_net() -> PetriNet:
    """A free-choice net whose arc insertion order fights id order.

    Transitions and places are declared in an order unrelated to the
    flow, and the choice place's output arcs are added in reverse
    declaration order — so any engine that confuses insertion order
    with id order, or postset order with consumer-id order, diverges.
    """
    net = PetriNet(name="adversarial_arc_order")
    net.add_place("z_out_b")
    net.add_place("m_choice", tokens=1)
    net.add_place("a_out_a")
    net.add_transition("t_b")
    net.add_transition("alpha_a")
    net.add_transition("z_src")
    net.add_transition("omega_sink_b")
    net.add_transition("b_sink_a")
    # choice place arcs added in reverse of transition declaration order
    net.add_arc("m_choice", "alpha_a")
    net.add_arc("m_choice", "t_b")
    net.add_arc("t_b", "z_out_b")
    net.add_arc("alpha_a", "a_out_a")
    net.add_arc("z_src", "m_choice")
    net.add_arc("z_out_b", "omega_sink_b")
    net.add_arc("a_out_a", "b_sink_a")
    return net


def _compiled_reduction(net: PetriNet):
    return next(iter_compiled_reductions(net))


#: Every entry point of the QSS pipeline and of the state-space
#: searches, driven with ``frontier``, as ``call(net, path)`` (``path``
#: holds the net as JSON), with the error it must raise: ``TypeError``
#: where it takes no engine.
QSS_FRONTIER_CALLS = {
    "analyse": (
        lambda net, _: analyse(net, engine="frontier"),
        ValueError,
        "unknown engine",
    ),
    "is_schedulable": (
        lambda net, _: is_schedulable(net, engine="frontier"),
        ValueError,
        "unknown engine",
    ),
    "compute_valid_schedule": (
        lambda net, _: compute_valid_schedule(net, engine="frontier"),
        ValueError,
        "unknown engine",
    ),
    "check_reduction": (
        lambda net, _: check_reduction(
            net, enumerate_reductions(net)[0], engine="frontier"
        ),
        TypeError,
        "engine",
    ),
    "enumerate_reductions": (
        lambda net, _: enumerate_reductions(net, engine="frontier"),
        TypeError,
        "engine",
    ),
    "count_distinct_reductions": (
        lambda net, _: count_distinct_reductions(net, engine="frontier"),
        TypeError,
        "engine",
    ),
    "find_firing_sequence": (
        lambda net, _: find_firing_sequence(net, {}, engine="frontier"),
        TypeError,
        "engine",
    ),
    "find_finite_complete_cycle": (
        lambda net, _: find_finite_complete_cycle(net, {}, engine="frontier"),
        TypeError,
        "engine",
    ),
    "check_compiled_reduction": (
        lambda net, _: check_compiled_reduction(
            _compiled_reduction(net), engine="frontier"
        ),
        TypeError,
        "engine",
    ),
    "CompiledReduction.find_finite_complete_cycle": (
        lambda net, _: _compiled_reduction(net).find_finite_complete_cycle(
            {}, _compiled_reduction(net).initial, engine="frontier"
        ),
        TypeError,
        "engine",
    ),
    "cli-analyse": (
        lambda _, path: main(["analyse", path, "--engine", "frontier"]),
        SystemExit,
        "^2$",  # argparse's usage-error exit code
    ),
    "build_reachability_graph": (
        lambda net, _: build_reachability_graph(net, engine="frontier"),
        ValueError,
        "unknown engine",
    ),
    "is_reachable": (
        lambda net, _: is_reachable(net, net.initial_marking, engine="frontier"),
        ValueError,
        "unknown engine",
    ),
    "coverability_analysis": (
        lambda net, _: coverability_analysis(net, engine="frontier"),
        ValueError,
        "unknown engine",
    ),
    "find_deadlocks": (
        lambda net, _: find_deadlocks(net, engine="frontier"),
        ValueError,
        "unknown engine",
    ),
    "is_live": (
        lambda net, _: is_live(net, engine="frontier"),
        ValueError,
        "unknown engine",
    ),
    "place_bounds": (
        lambda net, _: place_bounds(net, engine="frontier"),
        ValueError,
        "unknown engine",
    ),
    "analyse_spec": (
        lambda *_: analyse_spec(generate_corpus(1, seed=0)[0], engine="frontier"),
        ValueError,
        "unknown engine",
    ),
    "run_corpus": (
        lambda *_: run_corpus(generate_corpus(2, seed=0), engine="frontier"),
        ValueError,
        "unknown engine",
    ),
    "cli-corpus": (
        lambda *_: main(["corpus", "--n", "2", "--engine", "frontier"]),
        SystemExit,
        "^2$",
    ),
}


def assert_graphs_identical(graph: ReachabilityGraph, other: ReachabilityGraph):
    assert graph.markings == other.markings
    assert graph.edges == other.edges
    assert graph.complete == other.complete


def assert_explorations_identical(a, b):
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.edge_src, b.edge_src)
    assert np.array_equal(a.edge_transition, b.edge_transition)
    assert np.array_equal(a.edge_dst, b.edge_dst)
    assert a.complete == b.complete


def assert_graph_matches_oracles(net, max_markings=GRAPH_CAP, marking=None):
    """The compiled graph equals legacy's, and the hashed explorer's
    arrays equal the exact explorer's."""
    graph = build_reachability_graph(net, max_markings=max_markings, marking=marking)
    legacy = build_reachability_graph(
        net, max_markings=max_markings, marking=marking, engine="legacy"
    )
    assert_graphs_identical(graph, legacy)
    compiled = compile_net(net)
    start = None if marking is None else compiled.marking_to_tuple(marking)
    assert_explorations_identical(
        explore_frontier(compiled, start=start, max_markings=max_markings),
        _explore_exact(compiled, start, max_markings, None, False, True),
    )
    return graph


def assert_coverability_identical(net, max_nodes=COVERABILITY_CAP, reference=None):
    """Compiled coverability equals the compiled Karp–Miller construction
    (or ``reference``, e.g. the legacy result)."""
    result = coverability_analysis(net, max_nodes=max_nodes)
    if reference is None:
        reference = _coverability_analysis_compiled(compile_net(net), None, max_nodes)
    assert result.bounded == reference.bounded
    assert result.unbounded_places == reference.unbounded_places
    assert result.place_bounds == reference.place_bounds
    assert result.node_count == reference.node_count
    assert result.complete == reference.complete
    return result


def assert_qss_reports_agree(spec: NetSpec):
    """A compiled corpus run reports exactly the legacy QSS analysis.

    Its record equals the legacy one and holds the report's verdict,
    counts and cycle lengths; every cycle must really execute and close.
    """
    compiled = analyse_spec(spec, engine="compiled", analyse="qss")
    legacy = analyse_spec(spec, engine="legacy", analyse="qss")
    assert compiled.error is None
    assert {**compiled.to_dict(), "elapsed_ms": 0.0} == {
        **legacy.to_dict(),
        "elapsed_ms": 0.0,
    }
    net = spec.build()
    if not is_free_choice(net):
        assert compiled.schedulable is None
        return
    report = analyse(net)
    assert compiled.schedulable == report.schedulable
    assert compiled.allocations == report.allocation_count
    assert compiled.reductions == report.reduction_count
    assert compiled.cycle_lengths == [
        len(v.cycle) for v in report.verdicts if v.cycle is not None
    ]
    for verdict in report.verdicts:
        if verdict.cycle is not None:
            assert is_finite_complete_cycle(verdict.reduction.net, verdict.cycle)


# ----------------------------------------------------------------------
# Gallery
# ----------------------------------------------------------------------
class TestGallery:
    @pytest.mark.parametrize("figure", GALLERY)
    def test_graphs_identical_across_all_engines(self, figure):
        assert_graph_matches_oracles(paper_figures()[figure]())

    @pytest.mark.parametrize("figure", GALLERY)
    def test_coverability_identical(self, figure):
        assert_coverability_identical(paper_figures()[figure]())

    @pytest.mark.parametrize("figure", GALLERY)
    def test_property_verdicts_agree(self, figure):
        net = paper_figures()[figure]()
        graph = build_reachability_graph(net, max_markings=GRAPH_CAP)
        if graph.complete:
            assert find_deadlocks(net) == find_deadlocks(net, engine="legacy")
            assert is_live(net) == is_live(net, engine="legacy")

    @pytest.mark.parametrize("figure", GALLERY)
    def test_qss_reports_agree(self, figure):
        assert_qss_reports_agree(
            NetSpec(family="gallery", seed=0, params=(("figure", figure),))
        )


# ----------------------------------------------------------------------
# Corpus families, >= 10 seeds each
# ----------------------------------------------------------------------
class TestCorpusFamilies:
    @pytest.mark.parametrize("family,seed", FAMILY_CASES)
    def test_graphs_identical(self, family, seed):
        assert_graph_matches_oracles(_family_net(family, seed))

    @pytest.mark.parametrize("family,seed", FAMILY_CASES)
    def test_coverability_identical(self, family, seed):
        assert_coverability_identical(_family_net(family, seed))

    @pytest.mark.parametrize("family,seed", FAMILY_CASES)
    def test_qss_reports_agree(self, family, seed):
        assert_qss_reports_agree(CORPUS_FAMILIES[family].spec(seed))

    @pytest.mark.parametrize("family", sorted(CORPUS_FAMILIES))
    def test_reachability_queries_agree(self, family):
        net = _family_net(family, 0)
        graph = build_reachability_graph(net, max_markings=GRAPH_CAP)
        # a marking from the middle of the graph is reachable; a marking
        # with an absurd token count is not
        middle = graph.markings[graph.num_markings // 2]
        assert is_reachable(net, middle, max_markings=GRAPH_CAP)
        absurd = Marking({net.place_names[0]: 999_999})
        assert is_reachable(net, absurd, max_markings=GRAPH_CAP) == is_reachable(
            net, absurd, max_markings=GRAPH_CAP, engine="legacy"
        )


# ----------------------------------------------------------------------
# Edge cases the batching must not get wrong
# ----------------------------------------------------------------------
def _sourceless_pump_net() -> PetriNet:
    """Unbounded without a source: ``t`` takes one token and puts two back."""
    net = PetriNet(name="sourceless_pump")
    net.add_place("p", tokens=1)
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "p", weight=2)
    return net


class TestEdgeCases:
    def test_adversarial_arc_order(self):
        net = _adversarial_arc_order_net()
        assert_graph_matches_oracles(net)
        assert_coverability_identical(net)
        # the QSS pipeline on the same net: compiled equals its oracle
        assert is_free_choice(net)
        assert [v.cycle for v in analyse(net).verdicts] == [
            v.cycle for v in analyse(net, engine="legacy").verdicts
        ]

    @pytest.mark.parametrize("cap", [1, 2, 7, 17, 50, 100])
    def test_truncation_cutoff_identical(self, cap):
        """The max_markings cutoff lands on the same node and edge."""
        for net in [producer_consumer_ring(3, 2), pipeline_net(3, rates=[2, 1, 3])]:
            assert_graph_matches_oracles(net, max_markings=cap)

    def test_unbounded_net_defers_to_karp_miller(self):
        """Unbounded nets: Karp-Miller decides, and both engines agree."""
        net = pipeline_net(3, rates=[1, 1, 1])  # source transition => unbounded
        result = assert_coverability_identical(net, max_nodes=400)
        assert not result.bounded
        assert result.unbounded_places
        # Karp-Miller finishes on unbounded nets (omega makes the tree
        # finite), so place_bounds reports the same None-for-unbounded
        # bounds under both engines
        assert place_bounds(net) == place_bounds(net, engine="legacy")
        assert None in place_bounds(net).values()

    def test_sourceless_unbounded_net_defers_after_truncated_prefix(
        self, monkeypatch
    ):
        """Without a source the bounded prefix runs first, hits the cap,
        and Karp-Miller then returns the legacy result exactly."""
        import repro.petrinet.reachability as reachability_module

        prefixes = []

        def spy(*args, **kwargs):
            exploration = explore_frontier(*args, **kwargs)
            prefixes.append(exploration.complete)
            return exploration

        monkeypatch.setattr(reachability_module, "explore_frontier", spy)
        net = _sourceless_pump_net()
        legacy = coverability_analysis(net, max_nodes=50, engine="legacy")
        result = assert_coverability_identical(net, max_nodes=50, reference=legacy)
        assert prefixes == [False]
        assert result.unbounded_places == ["p"]
        assert result.complete

    def test_source_net_goes_straight_to_karp_miller(self, monkeypatch):
        """A source with an output place skips the bounded prefix."""
        import repro.petrinet.reachability as reachability_module

        def no_prefix(*args, **kwargs):
            raise AssertionError("the bounded prefix must not run")

        monkeypatch.setattr(reachability_module, "explore_frontier", no_prefix)
        net = pipeline_net(3, rates=[1, 1, 1])
        legacy = coverability_analysis(net, max_nodes=400, engine="legacy")
        assert_coverability_identical(net, max_nodes=400, reference=legacy)

    def test_place_bounds_agree_on_bounded_net(self):
        net = producer_consumer_ring(3, 2)
        assert place_bounds(net) == place_bounds(net, engine="legacy")

    def test_explicit_start_marking(self):
        net = producer_consumer_ring(2, 3)
        graph = build_reachability_graph(net, max_markings=GRAPH_CAP)
        assert_graph_matches_oracles(net, marking=graph.markings[-1])

    def test_exact_fallback_explorer_matches_hashed(self, monkeypatch):
        """The collision fallback path explores identically."""
        import repro.petrinet.frontier as frontier_module

        for build in [
            lambda: producer_consumer_ring(3, 2),
            lambda: pipeline_net(3, rates=[2, 1, 3]),
            lambda: _adversarial_arc_order_net(),
        ]:
            compiled = compile_net(build())
            hashed = explore_frontier(compiled, max_markings=200)
            exact = _explore_exact(
                compiled,
                start=None,
                max_markings=200,
                target=None,
                stop_on_target=False,
                collect_edges=True,
            )
            assert_explorations_identical(hashed, exact)

        # and the public entry point really falls back on disagreement
        def always_disagrees(*args, **kwargs):
            raise _HashDisagreement

        monkeypatch.setattr(frontier_module, "_explore_hashed", always_disagrees)
        net = producer_consumer_ring(3, 2)
        graph = build_reachability_graph(net, max_markings=200)
        reference = build_reachability_graph(net, max_markings=200, engine="legacy")
        assert_graphs_identical(graph, reference)

    def test_narrow_deep_state_space_stays_fast_and_identical(self):
        """A one-marking-per-level chain must bail out of per-level
        batching (the narrow-frontier detector) and still produce the
        legacy engine's exact graph."""
        net = PetriNet(name="producer_chain")
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("t", "p")
        graph = assert_graph_matches_oracles(net, max_markings=2_000)
        assert not graph.complete

    def test_stop_on_target_marks_exploration_incomplete(self):
        """An early-exit target search returns a prefix, and says so."""
        compiled = compile_net(producer_consumer_ring(5, 3))
        full = explore_frontier(compiled, max_markings=100_000)
        target = tuple(int(v) for v in full.matrix[50])
        early = explore_frontier(
            compiled, target=target, stop_on_target=True, max_markings=100_000
        )
        assert early.target_index == 50
        assert early.complete is False

    @pytest.mark.parametrize("entry_point", sorted(QSS_FRONTIER_CALLS))
    def test_qss_entry_points_reject_frontier(self, entry_point, tmp_path):
        """Every entry point runs compiled or legacy only: ``frontier``
        is an unknown engine to all of them, and the Definition 3.5
        checks, the reduction enumerators and the cycle searches (the
        oracle's DFS and the mask pipeline's greedy walk) take no engine
        at all."""
        call, error, match = QSS_FRONTIER_CALLS[entry_point]
        net = _adversarial_arc_order_net()
        path = tmp_path / "net.json"
        save_net(net, str(path))
        with pytest.raises(error, match=match):
            call(net, str(path))


# ----------------------------------------------------------------------
# Satellite regressions: adjacency cache, pre-compiled input
# ----------------------------------------------------------------------
class TestReachabilityGraphSuccessors:
    def test_successors_match_edge_scan(self):
        net = producer_consumer_ring(2, 2)
        graph = build_reachability_graph(net)
        for index in range(graph.num_markings):
            expected = [(t, dst) for src, t, dst in graph.edges if src == index]
            assert graph.successors(index) == expected

    def test_adjacency_invalidated_on_growth(self):
        graph = ReachabilityGraph(markings=[Marking({"a": 1}), Marking({"b": 1})])
        graph.edges.append((0, "t", 1))
        assert graph.successors(0) == [("t", 1)]
        # appending an edge after the cache was built must be observed
        graph.edges.append((0, "u", 1))
        assert graph.successors(0) == [("t", 1), ("u", 1)]
        index = graph.add_marking(Marking({"c": 1}))
        graph.edges.append((index, "v", 0))
        assert graph.successors(index) == [("v", 0)]

    def test_returned_list_is_a_copy(self):
        graph = ReachabilityGraph(markings=[Marking({"a": 1})])
        graph.edges.append((0, "t", 0))
        graph.successors(0).append(("junk", 99))
        assert graph.successors(0) == [("t", 0)]


class TestCompiledNetPassThrough:
    def test_frontier_accepts_precompiled_net(self):
        net = producer_consumer_ring(2, 2)
        compiled = compile_net(net)
        assert isinstance(compiled, CompiledNet)
        graph = build_reachability_graph(compiled)
        reference = build_reachability_graph(net, engine="legacy")
        assert_graphs_identical(graph, reference)

    def test_legacy_engine_still_rejects_compiled_input(self):
        compiled = compile_net(producer_consumer_ring(2, 2))
        with pytest.raises(ValueError, match="legacy"):
            build_reachability_graph(compiled, engine="legacy")

    def test_unknown_engine_rejected(self):
        net = producer_consumer_ring(2, 2)
        with pytest.raises(ValueError, match="unknown engine"):
            build_reachability_graph(net, engine="warp")

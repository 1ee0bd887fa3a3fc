"""Compiled/legacy equivalence suite.

The compiled engine (:mod:`repro.petrinet.compiled`) must be a pure
accelerator: every analysis refactored to run on it — enabledness,
firing, reachability exploration, constrained simulation, the QSS
schedulability check — has to produce results identical to the original
dict-based path.  This suite cross-checks the two engines on all gallery
nets and on randomized nets from :mod:`repro.petrinet.generators`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gallery import paper_figures
from repro.petrinet import (
    CompiledNet,
    CompiledSimulator,
    Marking,
    NetBuilder,
    Simulator,
    build_reachability_graph,
    compile_net,
    find_finite_complete_cycle,
    find_firing_sequence,
    fire_sequence,
    incidence_matrices,
    make_random_policy,
    t_invariants,
)
from repro.petrinet.exceptions import NotEnabledError, UnknownNodeError
from repro.petrinet.generators import (
    multirate_choice_net,
    nested_choices_net,
    pipeline_net,
    random_free_choice_net,
    random_marked_graph,
)
from repro.qss import analyse, iter_compiled_reductions

GALLERY = sorted(paper_figures())
#: gallery nets inside the FCPN class (figure1b is deliberately not
#: free-choice, so the QSS equivalence check excludes it)
FREE_CHOICE_GALLERY = [f for f in GALLERY if f != "figure1b"]
RANDOM_SEEDS = [0, 1, 2, 3, 4]


def random_nets():
    nets = [random_free_choice_net(seed) for seed in RANDOM_SEEDS]
    nets += [random_marked_graph(seed) for seed in RANDOM_SEEDS]
    return nets


# ----------------------------------------------------------------------
# Compilation basics
# ----------------------------------------------------------------------
class TestCompileBasics:
    def test_index_maps_follow_insertion_order(self, fig4):
        compiled = fig4.compile()
        assert list(compiled.places) == fig4.place_names
        assert list(compiled.transitions) == fig4.transition_names
        for name, index in compiled.place_index.items():
            assert compiled.places[index] == name
        for name, index in compiled.transition_index.items():
            assert compiled.transitions[index] == name

    @pytest.mark.parametrize("figure", GALLERY)
    def test_matrices_match_incidence_module(self, figure):
        net = paper_figures()[figure]()
        compiled = net.compile()
        matrices = incidence_matrices(net)
        assert np.array_equal(compiled.pre, matrices.pre)
        assert np.array_equal(compiled.post, matrices.post)
        assert np.array_equal(compiled.incidence, matrices.incidence)

    def test_pre_post_lists_encode_presets(self, fig4):
        compiled = fig4.compile()
        for name, t_id in compiled.transition_index.items():
            preset = {compiled.places[p]: w for p, w in compiled.pre_lists[t_id]}
            assert preset == fig4.preset(name)
            postset = {compiled.places[p]: w for p, w in compiled.post_lists[t_id]}
            assert postset == fig4.postset(name)

    def test_initial_marking_round_trip(self, atm_net):
        compiled = atm_net.compile()
        assert compiled.initial_marking == atm_net.initial_marking
        assert compiled.marking_to_tuple(atm_net.initial_marking) == compiled.initial

    def test_marking_conversions(self, fig4):
        compiled = fig4.compile()
        marking = Marking({"p1": 2, "p3": 1})
        vector = compiled.marking_to_tuple(marking)
        assert vector[compiled.place_index["p1"]] == 2
        assert vector[compiled.place_id("p3")] == 1
        assert compiled.marking_from_tuple(vector) == marking

    def test_compile_net_is_noop_on_compiled(self, fig4):
        compiled = fig4.compile()
        assert compile_net(compiled) is compiled
        assert isinstance(compile_net(fig4), CompiledNet)

    def test_unknown_names_raise(self, fig4):
        compiled = fig4.compile()
        with pytest.raises(UnknownNodeError):
            compiled.transition_id("nope")
        with pytest.raises(UnknownNodeError):
            compiled.place_id("nope")


class TestDecompile:
    @pytest.mark.parametrize("figure", GALLERY)
    def test_round_trip_preserves_structure(self, figure):
        net = paper_figures()[figure]()
        rebuilt = net.compile().decompile()
        assert rebuilt.place_names == net.place_names
        assert rebuilt.transition_names == net.transition_names
        assert sorted((a.source, a.target, a.weight) for a in rebuilt.arcs) == sorted(
            (a.source, a.target, a.weight) for a in net.arcs
        )
        assert rebuilt.initial_marking == net.initial_marking

    def test_round_trip_preserves_metadata(self):
        net = (
            NetBuilder("meta")
            .place("p1", tokens=2, capacity=5, label="buffer")
            .source("t_src", label="input", cost=3)
            .sink("t_snk")
            .arc("t_src", "p1")
            .arc("p1", "t_snk")
            .build()
        )
        rebuilt = net.compile().decompile()
        place = rebuilt.place("p1")
        assert place.capacity == 5 and place.label == "buffer"
        source = rebuilt.transition("t_src")
        assert source.cost == 3 and source.is_source_hint and source.label == "input"
        assert rebuilt.transition("t_snk").is_sink_hint

    def test_recompile_round_trip(self, fig5):
        compiled = fig5.compile()
        again = compiled.decompile().compile()
        assert again.places == compiled.places
        assert again.transitions == compiled.transitions
        assert np.array_equal(again.incidence, compiled.incidence)
        assert again.initial == compiled.initial


# ----------------------------------------------------------------------
# Token-game equivalence
# ----------------------------------------------------------------------
class TestTokenGameEquivalence:
    @pytest.mark.parametrize("figure", GALLERY)
    def test_enabled_and_fire_agree_along_random_walks(self, figure):
        net = paper_figures()[figure]()
        compiled = net.compile()
        rng = __import__("random").Random(figure)
        marking = net.initial_marking
        vector = compiled.initial
        for _ in range(60):
            legacy_enabled = net.enabled_transitions(marking)
            compiled_enabled = [
                compiled.transitions[t]
                for t in compiled.enabled_transitions(vector)
            ]
            assert compiled_enabled == legacy_enabled
            if not legacy_enabled:
                break
            choice = rng.choice(legacy_enabled)
            marking = net.fire(choice, marking)
            vector = compiled.fire_by_name(choice, vector)
            assert compiled.marking_from_tuple(vector) == marking

    def test_fire_disabled_raises_with_name(self, fig4):
        compiled = fig4.compile()
        t4 = compiled.transition_id("t4")
        with pytest.raises(NotEnabledError, match="t4"):
            compiled.fire(t4, compiled.initial)

    def test_fire_sequence_matches_legacy(self, fig4):
        sequence = ["t1", "t1", "t2", "t2", "t4"]
        assert fire_sequence(fig4.compile(), sequence) == fire_sequence(fig4, sequence)

    def test_expander_agrees_with_scalar_firing(self):
        for net in random_nets():
            compiled = net.compile()
            vector = compiled.initial
            moves = compiled.expander(vector)
            assert [t for t, _ in moves] == compiled.enabled_transitions(vector)
            for transition, successor in moves:
                assert successor == compiled.fire_unchecked(transition, vector)


# ----------------------------------------------------------------------
# Reachability equivalence
# ----------------------------------------------------------------------
class TestReachabilityEquivalence:
    @pytest.mark.parametrize("figure", GALLERY)
    def test_gallery_graphs_identical(self, figure):
        net = paper_figures()[figure]()
        legacy = build_reachability_graph(net, max_markings=300, engine="legacy")
        compiled = build_reachability_graph(net, max_markings=300, engine="compiled")
        assert compiled.markings == legacy.markings
        assert compiled.edges == legacy.edges
        assert compiled.complete == legacy.complete

    def test_random_nets_graphs_identical(self):
        for net in random_nets():
            legacy = build_reachability_graph(net, max_markings=500, engine="legacy")
            compiled = build_reachability_graph(net, max_markings=500, engine="compiled")
            assert compiled.markings == legacy.markings
            assert compiled.edges == legacy.edges
            assert compiled.complete == legacy.complete

    def test_accepts_precompiled_net(self, fig2):
        compiled_net = fig2.compile()
        graph = build_reachability_graph(compiled_net, max_markings=50)
        reference = build_reachability_graph(fig2, max_markings=50, engine="legacy")
        assert graph.markings == reference.markings

    def test_index_of_uses_constant_time_map(self, fig2):
        graph = build_reachability_graph(fig2, max_markings=64)
        for i, marking in enumerate(graph.markings):
            assert graph.index_of(marking) == i
        assert graph.index_of(Marking({"p1": 999})) is None

    def test_add_marking_keeps_index_in_sync(self):
        from repro.petrinet.reachability import ReachabilityGraph

        graph = ReachabilityGraph(markings=[Marking({"a": 1})])
        index = graph.add_marking(Marking({"b": 2}))
        assert index == 1
        assert graph.index_of(Marking({"a": 1})) == 0
        assert graph.index_of(Marking({"b": 2})) == 1

    def test_unknown_engine_rejected(self, fig2):
        with pytest.raises(ValueError, match="unknown engine"):
            build_reachability_graph(fig2, engine="turbo")


# ----------------------------------------------------------------------
# Constrained simulation equivalence: the legacy oracle's DFS on the
# PetriNet against the mask pipeline's greedy walk on its T-reduction
# ----------------------------------------------------------------------
def only_reduction(net):
    """The single T-reduction of a conflict-free ``net``."""
    (reduction,) = iter_compiled_reductions(net)
    return reduction


class TestConstrainedSimulationEquivalence:
    @pytest.mark.parametrize(
        "counts",
        [
            {"t1": 4, "t2": 2, "t3": 1},
            {"t1": 8, "t2": 4, "t3": 2},
        ],
    )
    def test_fig2_sequences_identical(self, fig2, counts):
        legacy = find_firing_sequence(fig2, counts)
        reduction = only_reduction(fig2)
        walk = reduction.find_finite_complete_cycle(counts, reduction.initial)
        assert legacy is not None
        assert walk == legacy

    def test_impossible_counts_agree(self, fig2):
        reduction = only_reduction(fig2)
        assert find_firing_sequence(fig2, {"t2": 1}) is None
        walk = reduction.find_finite_complete_cycle({"t2": 1}, reduction.initial)
        assert walk is None

    def test_empty_counts(self, fig2):
        reduction = only_reduction(fig2)
        assert find_firing_sequence(fig2, {}) == []
        assert reduction.find_finite_complete_cycle({}, reduction.initial) == []

    def test_cycles_identical_on_generated_families(self):
        nets = [
            pipeline_net(4, rates=[2, 1, 2, 1]),
            multirate_choice_net(2, 3),
            nested_choices_net(3),
        ]
        compared = 0
        for net in nets:
            for reduction in iter_compiled_reductions(net):
                for invariant in t_invariants(reduction.net):
                    legacy = find_finite_complete_cycle(reduction.net, invariant)
                    walk = reduction.find_finite_complete_cycle(
                        invariant, reduction.initial
                    )
                    assert walk == legacy, (net.name, str(reduction.allocation))
                    compared += 1
        assert compared

    def test_unknown_transition_raises_unknown_node(self, fig2):
        with pytest.raises(UnknownNodeError):
            find_firing_sequence(fig2, {"missing": 1})


# ----------------------------------------------------------------------
# Free simulation equivalence
# ----------------------------------------------------------------------
class TestFreeSimulationEquivalence:
    @pytest.mark.parametrize("figure", FREE_CHOICE_GALLERY)
    def test_traces_identical_under_same_policy(self, figure):
        net = paper_figures()[figure]()
        legacy = Simulator(net, policy=make_random_policy(17)).run(80)
        compiled = CompiledSimulator(net, policy=make_random_policy(17)).run(80)
        assert compiled.fired == legacy.fired
        assert compiled.markings == legacy.markings
        assert compiled.deadlocked == legacy.deadlocked

    def test_endpoint_only_traces_match_full_run(self, fig3a):
        full = CompiledSimulator(fig3a, policy=make_random_policy(5)).run(50)
        light = CompiledSimulator(
            fig3a, policy=make_random_policy(5), record_markings=False
        ).run(50)
        assert light.fired == full.fired
        assert light.markings[0] == full.markings[0]
        assert light.final_marking == full.final_marking
        assert len(light.markings) <= 2

    def test_compiled_simulator_matches_legacy_over_seeds(self, fig4):
        compiled = compile_net(fig4)
        for seed in (7, 8, 9):
            trace = CompiledSimulator(
                compiled, policy=make_random_policy(seed), record_markings=False
            ).run(30)
            legacy = Simulator(fig4, policy=make_random_policy(seed)).run(30)
            assert trace.fired == legacy.fired
            assert trace.final_marking == legacy.final_marking


# ----------------------------------------------------------------------
# QSS verdict equivalence (Theorem 3.1 must not depend on the engine)
# ----------------------------------------------------------------------
class TestQssEquivalence:
    @pytest.mark.parametrize("figure", FREE_CHOICE_GALLERY)
    def test_gallery_verdicts_identical(self, figure):
        net = paper_figures()[figure]()
        legacy = analyse(net, engine="legacy")
        compiled = analyse(net, engine="compiled")
        assert compiled.schedulable == legacy.schedulable
        assert compiled.reduction_count == legacy.reduction_count
        assert compiled.allocation_count == legacy.allocation_count
        for verdict_c, verdict_l in zip(compiled.verdicts, legacy.verdicts):
            assert verdict_c.schedulable == verdict_l.schedulable
            assert verdict_c.consistent == verdict_l.consistent
            assert verdict_c.sources_covered == verdict_l.sources_covered
            assert verdict_c.deadlocked == verdict_l.deadlocked
            assert verdict_c.cycle == verdict_l.cycle
            assert verdict_c.uncovered_transitions == verdict_l.uncovered_transitions

    def test_random_free_choice_verdicts_identical(self):
        for seed in RANDOM_SEEDS:
            net = random_free_choice_net(seed)
            legacy = analyse(net, engine="legacy")
            compiled = analyse(net, engine="compiled")
            assert compiled.schedulable == legacy.schedulable
            assert [v.cycle for v in compiled.verdicts] == [
                v.cycle for v in legacy.verdicts
            ]

    def test_unknown_engine_rejected(self, fig3a):
        with pytest.raises(ValueError, match="unknown engine"):
            analyse(fig3a, engine="warp")


# ----------------------------------------------------------------------
# Engine misuse is surfaced, not silently papered over
# ----------------------------------------------------------------------
class TestEngineContract:
    def test_marking_with_unknown_place_rejected(self, fig2):
        compiled = fig2.compile()
        with pytest.raises(UnknownNodeError, match="ghost"):
            compiled.marking_to_tuple(Marking({"p1": 1, "ghost": 1}))
        # zero-count unknown entries in plain dicts are harmless
        assert compiled.marking_to_tuple({"p1": 1, "ghost": 0}) == (1, 0)

    def test_counters_setter_round_trips(self, fig4):
        from repro.codegen import ProgramExecutor, synthesize
        from repro.qss import compute_valid_schedule

        program = synthesize(compute_valid_schedule(fig4))
        executor = next(iter(ProgramExecutor(program).tasks.values()))
        snapshot = executor.counters
        executor.counters = {place: 7 for place in snapshot}
        assert all(value == 7 for value in executor.counters.values())
        executor.reset()
        assert executor.counters == executor.task.counters

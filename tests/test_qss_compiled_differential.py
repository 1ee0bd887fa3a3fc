"""Differential suite: mask-based compiled QSS pipeline vs legacy analyse().

The compiled pipeline (masks over one compiled parent net, streamed
allocation dedup, submatrix invariants, masked cycle search) must be
*indistinguishable* from the legacy per-allocation rebuild pipeline on
every observable: schedulable verdicts, allocation/reduction counts,
dedup signatures, per-reduction diagnostics, minimal T-invariants and
the exact finite-complete-cycle sequences.  This suite pins that down on
the paper's figure gallery plus ten seeds of every corpus family.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.gallery import paper_figures
from repro.petrinet.corpus import CORPUS_FAMILIES
from repro.petrinet.exceptions import NotFreeChoiceError
from repro.petrinet.structure import is_free_choice
from repro.qss import (
    analyse,
    count_distinct_reductions,
    enumerate_reductions,
    iter_compiled_reductions,
)

SEEDS_PER_FAMILY = 10

FAMILY_CASES = [
    (family, seed)
    for family in sorted(CORPUS_FAMILIES)
    for seed in range(SEEDS_PER_FAMILY)
]


def _verdict_facts(verdict):
    """Everything observable about one verdict, minus the reduction object."""
    return {
        "schedulable": verdict.schedulable,
        "consistent": verdict.consistent,
        "sources_covered": verdict.sources_covered,
        "cycle": verdict.cycle,
        "uncovered_transitions": verdict.uncovered_transitions,
        "uncovered_sources": verdict.uncovered_sources,
        "source_places": verdict.source_places,
        "deadlocked": verdict.deadlocked,
        "invariants": verdict.invariants,
        "signature": verdict.reduction.signature(),
        "allocation": verdict.reduction.allocation,
    }


def assert_reports_identical(net):
    """Compare the two engines on every observable of the analysis."""
    try:
        legacy = analyse(net, engine="legacy")
    except NotFreeChoiceError:
        with pytest.raises(NotFreeChoiceError):
            analyse(net, engine="compiled")
        return None
    compiled = analyse(net, engine="compiled")

    assert compiled.schedulable == legacy.schedulable
    assert compiled.allocation_count == legacy.allocation_count
    assert compiled.reduction_count == legacy.reduction_count
    assert compiled.complete and legacy.complete
    assert len(compiled.verdicts) == len(legacy.verdicts)
    for c_verdict, l_verdict in zip(compiled.verdicts, legacy.verdicts):
        assert _verdict_facts(c_verdict) == _verdict_facts(l_verdict)
    # per-reduction cycle firing counts (the paper's repetition vectors)
    compiled_counts = [
        Counter(v.cycle) if v.cycle is not None else None for v in compiled.verdicts
    ]
    legacy_counts = [
        Counter(v.cycle) if v.cycle is not None else None for v in legacy.verdicts
    ]
    assert compiled_counts == legacy_counts
    if legacy.schedulable:
        assert compiled.schedule is not None and legacy.schedule is not None
        assert [c.sequence for c in compiled.schedule.cycles] == [
            c.sequence for c in legacy.schedule.cycles
        ]
        assert compiled.schedule.verify()
    return compiled


class TestGalleryDifferential:
    @pytest.mark.parametrize("figure", sorted(paper_figures()))
    def test_gallery_figure(self, figure):
        assert_reports_identical(paper_figures()[figure]())


class TestCorpusFamiliesDifferential:
    @pytest.mark.parametrize("family,seed", FAMILY_CASES)
    def test_family_seed(self, family, seed):
        net = CORPUS_FAMILIES[family].spec(seed).build()
        assert_reports_identical(net)


class TestReductionEquivalence:
    """The mask pipeline's reductions and their named views equal the
    legacy oracle's."""

    @pytest.mark.parametrize(
        "family,seed", [(f, s) for f in sorted(CORPUS_FAMILIES) for s in range(3)]
    )
    def test_enumerate_reductions_engines_agree(self, family, seed):
        net = CORPUS_FAMILIES[family].spec(seed).build()
        if not is_free_choice(net):
            pytest.skip("non-free-choice net")
        legacy = enumerate_reductions(net)
        compiled = list(iter_compiled_reductions(net))
        assert len(compiled) == len(legacy)
        for c_red, l_red in zip(compiled, legacy):
            assert c_red.allocation == l_red.allocation
            assert c_red.signature() == l_red.signature()
            assert c_red.removed_transitions == l_red.removed_transitions
            assert c_red.removed_places == l_red.removed_places
            assert c_red.net.place_names == l_red.net.place_names
            assert c_red.net.transition_names == l_red.net.transition_names
            assert c_red.net.initial_marking == l_red.net.initial_marking
            assert {
                (a.source, a.target, a.weight) for a in c_red.net.arcs
            } == {(a.source, a.target, a.weight) for a in l_red.net.arcs}

    def test_count_distinct_reductions_engines_agree(self):
        for family in ("nested_choices", "independent_choices", "choice_fan"):
            net = CORPUS_FAMILIES[family].spec(1).build()
            assert count_distinct_reductions(net) == len(enumerate_reductions(net))

    def test_streaming_dedup_matches_legacy_signatures(self):
        net = CORPUS_FAMILIES["nested_choices"].spec(3).build()
        legacy_signatures = [r.signature() for r in enumerate_reductions(net)]
        compiled_signatures = [
            r.signature() for r in iter_compiled_reductions(net)
        ]
        assert compiled_signatures == legacy_signatures

    def test_context_reuse_across_reductions(self):
        """Every streamed reduction shares one parent context/compilation."""
        net = CORPUS_FAMILIES["independent_choices"].spec(0).build()
        reductions = list(iter_compiled_reductions(net))
        assert len(reductions) > 1
        assert len({id(r.context) for r in reductions}) == 1
        assert reductions[0].context.net is net


class TestArcOrderParity:
    def test_postset_order_differs_from_transition_id_order(self):
        """Allocation enumeration follows arc insertion order, not id order,
        so first-wins dedup picks the same representative as legacy even
        when the two orders disagree."""
        from repro.petrinet import PetriNet

        net = PetriNet("weird_order")
        net.add_transition("src", is_source_hint=True)
        net.add_place("choice")
        for t in ("t_a", "t_b", "t_c"):
            net.add_transition(t)
        net.add_arc("src", "choice")
        for t in ("t_c", "t_a", "t_b"):  # postset order != id order
            net.add_arc("choice", t)
            place = f"p_{t}"
            net.add_place(place)
            net.add_arc(t, place)
            sink = f"e_{t}"
            net.add_transition(sink)
            net.add_arc(place, sink)
        compiled = assert_reports_identical(net)
        assert compiled is not None
        assert [
            str(v.reduction.allocation) for v in compiled.verdicts
        ] == [
            "TAllocation(choice->t_c)",
            "TAllocation(choice->t_a)",
            "TAllocation(choice->t_b)",
        ]

"""The reduction walk of ``iter_compiled_reductions`` against the product walk.

``iter_compiled_reductions`` runs the removal cascade only for
allocations that no earlier cascade's cube covers, and skips the rest.
This suite pins that the skipping changes nothing: the walk yields the
same ``(allocation, masks, removal orders)`` sequence as a brute-force
walk over the whole allocation product with first-wins dedup, on the
nets the ``qss_synth`` benchmark synthesizes, the paper gallery, a corpus
slice and seeded random strict free-choice nets with joins, merges,
self-loops and arc weights 1–2.  It also pins the cascade count on the
benchmark nets, and a self-loop net on which a choice at a removed
choice place still decides the reduction.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.apps import heating, router
from repro.apps.atm import build_atm_server_net
from repro.gallery import figures, paper_figures
from repro.petrinet import PetriNet
from repro.petrinet.corpus import generate_corpus
from repro.petrinet.generators import (
    independent_choices_net,
    nested_choices_net,
    unschedulable_merge_net,
)
from repro.petrinet.structure import is_free_choice
from repro.qss import analyse, iter_compiled_reductions
from repro.qss.compiled_reduction import QSSContext

#: The nets of the ``qss_synth`` benchmark, with their distinct
#: T-reductions (one cascade each) and T-allocations.
SYNTH_NETS = {
    "atm": (build_atm_server_net, 120, 2048),
    "router": (router.build_router_net, 24, 64),
    "heating": (heating.build_heating_net, 12, 24),
    "figure4": (figures.figure4_weighted, 2, 2),
    "independent_choices_6x2": (lambda: independent_choices_net(6, 2), 64, 64),
    "nested_choices_10": (lambda: nested_choices_net(10), 11, 1024),
    "figure7": (figures.figure7_unschedulable, 2, 2),
}


def growing_self_loop() -> PetriNet:
    """``p`` (1 token) -> ``t_exit``, and ``p`` -> ``t_loop`` -> ``p`` x2.

    Allocating ``t_exit`` removes ``p``, yet the choice at ``p`` still
    decides the reduction: allocating ``t_loop`` keeps the inconsistent
    loop ``{t_loop, p}``, so the net is not schedulable.
    """
    net = PetriNet("growing_self_loop")
    net.add_place("p", tokens=1)
    net.add_transition("t_exit")
    net.add_transition("t_loop")
    net.add_arc("p", "t_exit")
    net.add_arc("p", "t_loop")
    net.add_arc("t_loop", "p", weight=2)
    return net


def random_free_choice_net(seed: int) -> PetriNet:
    """A seeded strict free-choice net with joins, merges and self-loops.

    Every place is consumed either by 1–3 single-input transitions (a
    choice when more than one) or by one two-input join; 1–2 source
    transitions feed it.  Outputs go to random places, so a place may
    have several producers (a merge) or feed its own consumer (a
    self-loop).  Transitions, arcs and tokens are inserted in random
    order, so postset order and id order disagree.
    """
    rng = random.Random(seed)
    net = PetriNet(f"random_free_choice_{seed}")
    places = [f"p{i}" for i in range(rng.randint(2, 9))]
    for place in places:
        net.add_place(place)
    unconsumed = places[:]
    rng.shuffle(unconsumed)
    presets = []
    while unconsumed:
        if len(unconsumed) == 1 or rng.random() < 0.65:
            presets.extend([(unconsumed.pop(),)] * rng.choice((1, 2, 2, 3)))
        else:
            presets.append((unconsumed.pop(), unconsumed.pop()))
    presets.extend([()] * rng.randint(1, 2))
    rng.shuffle(presets)
    arcs = []
    for index, preset in enumerate(presets):
        name = f"t{index}"
        net.add_transition(name)
        arcs.extend((place, name, rng.choice((1, 1, 2))) for place in preset)
        fan_out = rng.choice((0, 1, 1, 2)) if preset else rng.choice((1, 2))
        arcs.extend(
            (name, place, rng.choice((1, 1, 2)))
            for place in rng.sample(places, fan_out)
        )
    rng.shuffle(arcs)
    for source, target, weight in arcs:
        net.add_arc(source, target, weight)
    for place in places:
        if rng.random() < 0.4:
            net.set_initial_tokens(place, rng.randint(1, 2))
    return net


def product_walk(net: PetriNet):
    """Every allocation's cascade, in product order, first-wins dedup."""
    ctx = QSSContext(net)
    options = [
        [(p_id, t_id) for t_id in alternatives]
        for p_id, alternatives in ctx.choice_alternatives
    ]
    seen = set()
    sequence = []
    for combination in itertools.product(*options):
        excluded = [
            t_id
            for p_id, chosen in combination
            for t_id in ctx.place_consumers[p_id]
            if t_id != chosen
        ]
        t_mask, p_mask, removed_t, removed_p, _ = ctx.reduce_masks(excluded)
        if (t_mask, p_mask) in seen:
            continue
        seen.add((t_mask, p_mask))
        sequence.append(
            (ctx.make_allocation(combination), t_mask, p_mask, removed_t, removed_p)
        )
    return sequence


def walk(net: PetriNet):
    return [
        (
            r.allocation,
            r.transition_mask,
            r.place_mask,
            r.removed_transition_ids,
            r.removed_place_ids,
        )
        for r in iter_compiled_reductions(net)
    ]


def mismatches(nets):
    """Names of the free-choice nets on which the two walks differ."""
    return [
        net.name
        for net in nets
        if is_free_choice(net) and walk(net) != product_walk(net)
    ]


@pytest.fixture
def cascades(monkeypatch):
    """Count the walk's calls of :meth:`QSSContext.reduce_masks`."""
    calls = []
    reduce_masks = QSSContext.reduce_masks

    def counted(self, excluded):
        calls.append(1)
        return reduce_masks(self, excluded)

    monkeypatch.setattr(QSSContext, "reduce_masks", counted)
    return calls


class TestWalkEqualsProductWalk:
    @pytest.mark.parametrize("name", sorted(SYNTH_NETS))
    def test_synth_net(self, name):
        net = SYNTH_NETS[name][0]()
        assert walk(net) == product_walk(net)

    @pytest.mark.parametrize("figure", sorted(paper_figures()))
    def test_gallery_figure(self, figure):
        assert mismatches([paper_figures()[figure]()]) == []

    def test_corpus_slice(self):
        nets = [spec.build() for spec in generate_corpus(300, seed=0)]
        assert mismatches(nets) == []

    def test_random_free_choice_nets(self):
        nets = [random_free_choice_net(seed) for seed in range(300)]
        assert all(is_free_choice(net) for net in nets)
        assert mismatches(nets) == []

    def test_growing_self_loop(self):
        net = growing_self_loop()
        assert walk(net) == product_walk(net)


class TestCascadeCount:
    @pytest.mark.parametrize("name", sorted(SYNTH_NETS))
    def test_one_cascade_per_distinct_reduction(self, name, cascades):
        build, reductions, allocations = SYNTH_NETS[name]
        report = analyse(build())
        assert report.allocation_count == allocations
        assert report.reduction_count == reductions
        assert len(cascades) == reductions


class TestGrowingSelfLoop:
    @pytest.mark.parametrize("engine", ["compiled", "legacy"])
    def test_two_reductions_and_not_schedulable(self, engine):
        report = analyse(growing_self_loop(), engine=engine)
        assert report.reduction_count == 2
        assert not report.schedulable
        (failing,) = report.failing_verdicts
        assert failing.reduction.transition_set == {"t_loop"}
        assert not failing.consistent


class TestFailFast:
    @pytest.mark.parametrize(
        "build",
        [figures.figure7_unschedulable, unschedulable_merge_net, growing_self_loop],
    )
    def test_engines_stop_at_the_same_verdict(self, build):
        net = build()
        compiled = analyse(net, engine="compiled", fail_fast=True)
        legacy = analyse(net, engine="legacy", fail_fast=True)
        assert not compiled.complete and not legacy.complete
        assert not compiled.schedulable and not legacy.schedulable
        assert compiled.reduction_count == legacy.reduction_count
        assert [
            (v.reduction.allocation, v.reduction.signature(), v.schedulable)
            for v in compiled.verdicts
        ] == [
            (v.reduction.allocation, v.reduction.signature(), v.schedulable)
            for v in legacy.verdicts
        ]

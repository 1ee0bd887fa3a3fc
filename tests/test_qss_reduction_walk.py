"""The two walks of the mask pipeline against their brute-force oracles.

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

``CompiledReduction.find_finite_complete_cycle`` orders a reduction's
covering counts with one greedy walk over the parent's tables.  On the
same nets, the suite pins that walk's cycle equal to the legacy DFS's on
the rebuilt reduced net at every scale the pipeline tries, and the
premises of the walk's two proofs: every reduction is conflict-free, and
no live transition touches a removed place.  On the random nets where
the DFS ran for minutes, ``analyse`` must finish under a hard bound.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import heating, router
from repro.apps.atm import build_atm_server_net
from repro.gallery import figures, paper_figures
from repro.petrinet import PetriNet, find_finite_complete_cycle
from repro.petrinet.corpus import generate_corpus
from repro.petrinet.generators import (
    independent_choices_net,
    nested_choices_net,
    unschedulable_merge_net,
)
from repro.petrinet.structure import is_conflict_free, is_free_choice
from repro.qss import MAX_CYCLE_SCALE, analyse, covering_counts, iter_compiled_reductions
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


#: Walk-generator seeds on which the legacy DFS takes seconds or more:
#: where no ordering exists, it visits every reachable search state.
SLOW_DFS_SEEDS = frozenset({17, 38, 148, 152, 192, 313, 380})

#: The corpus nets and walk-generator seeds the cycle-walk tests run on.
CORPUS_SLICE = 100
RANDOM_SEEDS = range(200)

#: The seeds on which ``analyse`` ran the DFS for minutes, with their
#: distinct T-reductions; none of the nets is schedulable.
HANG_SEEDS = {152: 66, 192: 36, 380: 28}


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


def assert_conflict_free(reduction) -> None:
    """Sanity check: a T-reduction must be conflict-free by construction."""
    net = reduction.net
    if not is_conflict_free(net):
        offending = [p for p in net.place_names if len(net.postset(p)) > 1]
        raise AssertionError(
            f"T-reduction of {reduction.allocation} is not conflict-free; "
            f"offending places: {offending}"
        )


def searched_counts(reduction):
    """The covering counts condition (3) orders for ``reduction``, or
    ``None`` when condition (1) or (2) fails and nothing is searched."""
    invariants = reduction.t_invariants()
    covered = set().union(*invariants)
    sources = reduction.context.source_transition_names
    if not covered.issuperset([*reduction.transition_names, *sources]):
        return None
    return covering_counts(reduction.transition_names, invariants, sources)


def compare_cycles(nets):
    """Walk against DFS on every search the pipeline makes on ``nets``.

    Returns the ``(net, allocation, scale)`` triples where the two
    differ, and how many searches found a cycle and how many found none.
    """
    mismatches, found, none = [], 0, 0
    for net in nets:
        if not is_free_choice(net):
            continue
        for reduction in iter_compiled_reductions(net):
            counts = searched_counts(reduction)
            if counts is None:
                continue
            for scale in range(1, MAX_CYCLE_SCALE + 1):
                scaled = {t: c * scale for t, c in counts.items()}
                walk = reduction.find_finite_complete_cycle(scaled, reduction.initial)
                dfs = find_finite_complete_cycle(reduction.net, scaled)
                if walk != dfs:
                    mismatches.append((net.name, str(reduction.allocation), scale))
                if walk is None:
                    none += 1
                else:
                    found += 1
    return mismatches, found, none


def removed_place_touches(nets):
    """Every reduction of ``nets`` must be conflict-free; returns the
    ``(net, live transition, removed places)`` where a live transition
    has a removed place in its preset or postset."""
    touches = []
    for net in nets:
        if not is_free_choice(net):
            continue
        for reduction in iter_compiled_reductions(net):
            assert_conflict_free(reduction)
            ctx = reduction.context
            places = ctx.compiled.places
            for t_id in reduction.transition_ids:
                removed = [
                    places[p]
                    for p in ctx.t_pre_places[t_id] + ctx.t_post_places[t_id]
                    if not reduction.place_mask[p]
                ]
                if removed:
                    touches.append((net.name, ctx.compiled.transitions[t_id], removed))
    return touches


def random_nets(seeds):
    return [random_free_choice_net(seed) for seed in seeds if seed not in SLOW_DFS_SEEDS]


class TestCycleWalkEqualsDfs:
    @pytest.mark.parametrize("name", sorted(SYNTH_NETS))
    def test_synth_net(self, name):
        mismatches, _, _ = compare_cycles([SYNTH_NETS[name][0]()])
        assert mismatches == []

    def test_gallery(self):
        nets = [build() for build in paper_figures().values()]
        assert compare_cycles(nets)[0] == []

    def test_corpus_slice(self):
        nets = [spec.build() for spec in generate_corpus(300, seed=0)[:CORPUS_SLICE]]
        assert compare_cycles(nets)[0] == []

    def test_random_free_choice_nets(self):
        mismatches, found, none = compare_cycles(random_nets(RANDOM_SEEDS))
        assert mismatches == []
        # both outcomes are exercised: cycles found, and deadlocks
        assert found and none


class TestCycleWalkPremises:
    @pytest.mark.parametrize("name", sorted(SYNTH_NETS))
    def test_synth_net(self, name):
        assert removed_place_touches([SYNTH_NETS[name][0]()]) == []

    def test_gallery(self):
        nets = [build() for build in paper_figures().values()]
        assert removed_place_touches(nets) == []

    def test_corpus_slice(self):
        nets = [spec.build() for spec in generate_corpus(300, seed=0)[:CORPUS_SLICE]]
        assert removed_place_touches(nets) == []

    def test_random_free_choice_nets(self):
        assert removed_place_touches(random_nets(RANDOM_SEEDS)) == []


class TestNoHang:
    def test_slow_dfs_seeds_finish_under_a_hard_bound(self):
        """``analyse`` on the seeds where the DFS ran for minutes, in a
        child process killed after 30 s, so a hang fails this test
        instead of holding the suite."""
        here = Path(__file__).resolve().parent
        script = (
            "import json, sys\n"
            "sys.path[:0] = sys.argv[1:3]\n"
            "from test_qss_reduction_walk import random_free_choice_net\n"
            "from repro.qss import analyse\n"
            "reports = [analyse(random_free_choice_net(int(s))) for s in sys.argv[3:]]\n"
            "print(json.dumps([[r.schedulable, r.reduction_count] for r in reports]))\n"
        )
        command = [
            sys.executable, "-c", script, str(here.parent / "src"), str(here),
            *map(str, HANG_SEEDS),
        ]
        try:
            proc = subprocess.run(command, capture_output=True, text=True, timeout=30)
        except subprocess.TimeoutExpired:
            pytest.fail(f"analyse did not finish within 30 s on seeds {list(HANG_SEEDS)}")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            [False, reductions] for reductions in HANG_SEEDS.values()
        ]

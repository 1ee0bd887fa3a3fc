"""Schedulability of T-reductions (Definition 3.5).

A T-reduction is schedulable when

1. it is *consistent* (it admits T-invariants whose supports cover every
   transition of the reduction),
2. for every source transition of the original net it has a T-invariant
   containing that source transition, and
3. a firing sequence realizing those invariants can actually be executed
   from the initial marking without deadlock (verified by simulation, the
   generalization of Lee's SDF result).

Theorem 3.1: the FCPN has a valid schedule iff *every* T-reduction is
schedulable.  This module implements the per-reduction check and returns
rich diagnostics so that a designer can see exactly why a specification
fails.

The check exists twice, on one verdict body: :func:`check_compiled_reduction`
is the fast path ``analyse`` runs by default, on a mask view of the
compiled parent net, and :func:`check_reduction` is its oracle, on the
rebuilt reduced :class:`~repro.petrinet.net.PetriNet` with the legacy
token game (``analyse(engine="legacy")``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..petrinet import (
    Marking,
    PetriNet,
    combine_invariants,
    find_finite_complete_cycle,
    t_invariants,
)
from .compiled_reduction import CompiledReduction
from .reduction import TReduction

#: How many integer multiples of the covering invariant are attempted when
#: searching for an executable ordering before declaring deadlock.
MAX_CYCLE_SCALE = 3


@dataclass
class ReductionVerdict:
    """Outcome of the schedulability check for one T-reduction.

    Attributes
    ----------
    reduction:
        The T-reduction that was checked.
    schedulable:
        The overall verdict (all three conditions hold).
    consistent:
        Condition (1): the reduction's transitions are covered by
        T-invariants.
    sources_covered:
        Condition (2): every source transition of the original net lies in
        some T-invariant of the reduction.
    cycle:
        Condition (3): a finite complete cycle realizing the covering
        invariant, when one exists.
    uncovered_transitions / uncovered_sources / source_places:
        Diagnostics explaining a negative verdict.
    invariants:
        The minimal T-invariants of the reduction, kept for reporting
        and for task partitioning: ``analyse`` hands them to the
        reduction's :class:`~repro.qss.schedule.FiniteCompleteCycle`,
        and ``partition_tasks`` reads them from there.
    """

    reduction: "TReduction | CompiledReduction"
    schedulable: bool
    consistent: bool
    sources_covered: bool
    cycle: Optional[List[str]] = None
    uncovered_transitions: List[str] = field(default_factory=list)
    uncovered_sources: List[str] = field(default_factory=list)
    source_places: List[str] = field(default_factory=list)
    deadlocked: bool = False
    invariants: List[Dict[str, int]] = field(default_factory=list)

    def explain(self) -> str:
        """One-paragraph explanation of the verdict for the designer."""
        if self.schedulable:
            return (
                f"reduction {self.reduction.allocation} is schedulable; "
                f"cycle length {len(self.cycle or [])}"
            )
        reasons = []
        if not self.consistent:
            reasons.append(
                "inconsistent (no T-invariant covers transitions "
                f"{self.uncovered_transitions})"
            )
        if not self.sources_covered:
            reasons.append(
                f"source transitions {self.uncovered_sources} are not part "
                "of any T-invariant"
            )
        if self.deadlocked:
            reasons.append(
                "the covering T-invariant cannot be ordered into a firing "
                "sequence from the initial marking (deadlock)"
            )
        if self.source_places:
            reasons.append(
                f"the reduction keeps source places {self.source_places} "
                "with no producer, so repeated execution would need "
                "infinitely many tokens from a removed branch"
            )
        return (
            f"reduction {self.reduction.allocation} is NOT schedulable: "
            + "; ".join(reasons)
        )


def covering_counts(
    needed: Sequence[str],
    invariants: List[Dict[str, int]],
    sources: Sequence[str],
) -> Dict[str, int]:
    """Firing counts combining enough minimal invariants to cover every
    transition in ``needed`` and every source transition of the net.

    Shared by the legacy per-net and the mask-based pipelines; the
    invariant selection (and therefore the resulting count-dict
    insertion order, which fixes the candidate order of both the DFS
    and the greedy walk) is identical in both.
    """
    needed_set = set(needed)
    chosen: List[Dict[str, int]] = []
    covered: set = set()
    # First make sure each source transition is covered, then the rest.
    for source in sources:
        if source in covered:
            continue
        for invariant in invariants:
            if source in invariant:
                chosen.append(invariant)
                covered.update(invariant)
                break
    for invariant in invariants:
        if not set(invariant) <= covered:
            chosen.append(invariant)
            covered.update(invariant)
        if covered >= needed_set:
            break
    return combine_invariants(chosen)


def _definition_35_verdict(
    reduction,
    needed: Sequence[str],
    sources: Sequence[str],
    invariants: List[Dict[str, int]],
    source_places: List[str],
    find_cycle,
) -> ReductionVerdict:
    """The engine-independent skeleton of the Definition 3.5 check.

    ``needed`` are the reduction's transitions, ``sources`` the original
    net's source transitions, ``invariants`` the reduction's minimal
    T-invariants, and ``find_cycle(scaled_counts)`` the engine-specific
    search for a finite complete cycle realizing the counts.  Both
    :func:`check_reduction` and :func:`check_compiled_reduction` build
    their verdicts through this one body, so the coverage rules, the
    ``MAX_CYCLE_SCALE`` retry loop and the diagnostics cannot drift
    apart between the pipelines.
    """
    covered: set = set()
    for invariant in invariants:
        covered.update(invariant)
    uncovered = [t for t in needed if t not in covered]
    consistent = not uncovered

    uncovered_sources = [
        s for s in sources if not any(s in invariant for invariant in invariants)
    ]
    sources_covered = not uncovered_sources

    verdict = ReductionVerdict(
        reduction=reduction,
        schedulable=False,
        consistent=consistent,
        sources_covered=sources_covered,
        uncovered_transitions=uncovered,
        uncovered_sources=uncovered_sources,
        source_places=source_places,
        invariants=invariants,
    )
    if not (consistent and sources_covered):
        return verdict

    counts = covering_counts(needed, invariants, sources)
    for scale in range(1, MAX_CYCLE_SCALE + 1):
        scaled = {t: c * scale for t, c in counts.items()}
        cycle = find_cycle(scaled)
        if cycle is not None:
            verdict.cycle = cycle
            verdict.schedulable = True
            return verdict
    verdict.deadlocked = True
    return verdict


def check_reduction(
    net: PetriNet, reduction: TReduction, marking: Optional[Marking] = None
) -> ReductionVerdict:
    """Check Definition 3.5 for one T-reduction of ``net``: the oracle.

    Runs on the rebuilt reduced :class:`PetriNet` throughout — its own
    T-invariants and the legacy token game for the deadlock-freedom
    simulation of condition (3) — which is what makes it the
    independent check of :func:`check_compiled_reduction`, the fast
    path ``analyse`` takes by default.  Its memoized DFS and the fast
    path's greedy walk find the same cycle.
    """
    reduced = reduction.net
    start = marking if marking is not None else reduced.initial_marking
    return _definition_35_verdict(
        reduction,
        needed=reduced.transition_names,
        sources=net.source_transitions(),
        invariants=t_invariants(reduced),
        source_places=reduction.source_places(),
        find_cycle=lambda scaled: find_finite_complete_cycle(reduced, scaled, start),
    )


def check_compiled_reduction(
    reduction: CompiledReduction, marking: Optional[Marking] = None
) -> ReductionVerdict:
    """Check Definition 3.5 for one mask-based T-reduction: the fast path.

    The mask pipeline's counterpart of :func:`check_reduction`: the
    T-invariants come from the parent incidence submatrix (memoized on
    the :class:`~repro.qss.compiled_reduction.QSSContext`), and the
    deadlock-freedom simulation of condition (3) is one greedy walk
    over the parent's preset and delta tables on marking tuples
    restricted to the reduction's places — no per-reduction net and no
    per-reduction compilation exist at any point.  Produces verdicts
    (including cycles and diagnostics) identical to the legacy check
    for the same reduction.
    """
    start = (
        reduction.restrict_marking(marking)
        if marking is not None
        else reduction.initial
    )
    return _definition_35_verdict(
        reduction,
        needed=reduction.transition_names,
        sources=reduction.context.source_transition_names,
        invariants=reduction.t_invariants(),
        source_places=reduction.source_places(),
        find_cycle=lambda scaled: reduction.find_finite_complete_cycle(
            scaled, start
        ),
    )


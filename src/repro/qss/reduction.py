"""T-reductions: the conflict-free components induced by a T-allocation.

Definition 3.4 and the Reduction Algorithm of Section 3 (modified from
Hack's MG-decomposition to handle source and sink transitions): given a
T-allocation, remove every unallocated transition and then propagate the
removal through the net, keeping a place only when it still has a
producer (condition b.i) or when its consumer is fed from elsewhere by a
non-source place (condition b.ii — this deliberately leaves behind
"source places" with no producer so that an inconsistent reduction is
detected later, as in Figure 7).

The resulting subnet is conflict-free by construction (every surviving
place has at most one surviving successor), so it can be scheduled with
the static SDF techniques of Section 2.

This module is the legacy oracle: :func:`reduce_net` rebuilds a subnet
per allocation and :func:`enumerate_reductions` deduplicates them.  The
pipeline's fast path is the mask stream of
:mod:`repro.qss.compiled_reduction` (``iter_compiled_reductions``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from ..petrinet import PetriNet
from .allocation import TAllocation, enumerate_allocations


@dataclass(frozen=True)
class TReduction:
    """A T-reduction: the conflict-free subnet active under one allocation.

    Attributes
    ----------
    allocation:
        The T-allocation that induced this reduction.
    net:
        The reduced net (a subnet of the original, with the original
        initial marking restricted to the surviving places).
    removed_transitions / removed_places:
        The nodes removed by the Reduction Algorithm, recorded for
        diagnostics and for the step-by-step trace benchmark (Figure 6).
    """

    allocation: TAllocation
    net: PetriNet
    removed_transitions: Tuple[str, ...]
    removed_places: Tuple[str, ...]

    @property
    def transition_set(self) -> FrozenSet[str]:
        return frozenset(self.net.transition_names)

    @property
    def place_set(self) -> FrozenSet[str]:
        return frozenset(self.net.place_names)

    def signature(self) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """A hashable identity used to deduplicate equal reductions
        produced by different allocations."""
        return (self.transition_set, self.place_set)

    def source_places(self) -> List[str]:
        """Places of the reduction left without any producer.

        A non-empty result is the structural symptom of Figure 7: the
        reduction can only fire finitely often through those places.
        """
        return [
            p for p in self.net.place_names if not self.net.preset(p)
        ]


@dataclass
class ReductionStep:
    """One step of the Reduction Algorithm trace (for Figure 6)."""

    action: str
    node: str
    reason: str


def reduce_net(
    net: PetriNet,
    allocation: TAllocation,
    trace: Optional[List[ReductionStep]] = None,
) -> TReduction:
    """Apply the Reduction Algorithm and return the T-reduction.

    Parameters
    ----------
    net:
        The original free-choice net.
    allocation:
        The T-allocation to reduce by.
    trace:
        Optional list that receives a :class:`ReductionStep` per removal,
        in order — used to regenerate the Figure 6 walk-through.
    """
    allocated = allocation.allocated_transitions(net)
    reduced = net.copy(name=f"{net.name}_red")

    def log(action: str, node: str, reason: str) -> None:
        if trace is not None:
            trace.append(ReductionStep(action=action, node=node, reason=reason))

    removed_transitions: List[str] = []
    removed_places: List[str] = []

    def place_is_source(place: str) -> bool:
        return not reduced.preset(place)

    def remove_transition(transition: str, reason: str) -> None:
        if not reduced.has_transition(transition):
            return
        postset_places = reduced.postset_names(transition)
        reduced.remove_transition(transition)
        removed_transitions.append(transition)
        log("remove-transition", transition, reason)
        for place in postset_places:
            consider_place_removal(place, transition)

    def consider_place_removal(place: str, removed_producer: str) -> None:
        if not reduced.has_place(place):
            return
        # (b).i — the place still has another producer in the reduction
        if reduced.preset(place):
            return
        # (b).ii — keep the place (as a source place) when its consumer is
        # also fed by another place that is not a source place, so that an
        # inconsistent reduction remains visible to the consistency check.
        for successor in reduced.postset_names(place):
            for other in reduced.preset_names(successor):
                if other != place and not place_is_source(other):
                    log(
                        "keep-place",
                        place,
                        f"consumer {successor} also fed by non-source place {other}",
                    )
                    return
        successors = reduced.postset_names(place)
        reduced.remove_place(place)
        removed_places.append(place)
        log("remove-place", place, f"lost its producer {removed_producer}")
        for successor in successors:
            consider_transition_removal(successor, place)

    def consider_transition_removal(transition: str, removed_place: str) -> None:
        if not reduced.has_transition(transition):
            return
        predecessors = reduced.preset_names(transition)
        # (c).i — no predecessor place left
        if not predecessors:
            remove_transition(transition, f"lost its last input place {removed_place}")
            return
        # (c).ii — every remaining predecessor is a source place: the
        # transition can only fire finitely often from leftover tokens, so
        # it and its feeding source places are removed.
        if all(place_is_source(p) for p in predecessors):
            for place in predecessors:
                if reduced.has_place(place):
                    reduced.remove_place(place)
                    removed_places.append(place)
                    log(
                        "remove-place",
                        place,
                        f"source place feeding removed transition {transition}",
                    )
            remove_transition(
                transition, "all remaining input places were source places"
            )

    # Step 2: remove every transition not in the allocation, cascading.
    for transition in net.transition_names:
        if transition not in allocated:
            remove_transition(transition, "not in the T-allocation")

    # Step (d): iterate until no rule applies any longer.  The cascading
    # callbacks above handle the common cases; the fixpoint loop below
    # covers removals whose enabling condition only becomes true after
    # unrelated nodes have gone.
    changed = True
    while changed:
        changed = False
        for place in list(reduced.place_names):
            if reduced.preset(place):
                continue
            keep = False
            for successor in reduced.postset_names(place):
                for other in reduced.preset_names(successor):
                    if other != place and not place_is_source(other):
                        keep = True
                        break
                if keep:
                    break
            if keep:
                continue
            if not reduced.postset_names(place) and net.preset(place):
                # A place that lost both producer and consumer carries no
                # information; drop it.
                reduced.remove_place(place)
                removed_places.append(place)
                log("remove-place", place, "isolated after cascading removals")
                changed = True
        for transition in list(reduced.transition_names):
            predecessors = reduced.preset_names(transition)
            if predecessors and not all(place_is_source(p) for p in predecessors):
                continue
            if not predecessors and net.preset(transition):
                remove_transition(transition, "lost all input places")
                changed = True

    return TReduction(
        allocation=allocation,
        net=reduced,
        removed_transitions=tuple(removed_transitions),
        removed_places=tuple(removed_places),
    )


def enumerate_reductions(net: PetriNet) -> List[TReduction]:
    """Compute the distinct T-reductions of the T-allocations of ``net``.

    Allocations whose reductions coincide — because they differ only at
    choice places that are removed by the cascade (nested choices on
    discarded branches) — yield one reduction, the first in allocation
    order; the paper counts distinct reductions this way (120 for the
    ATM server despite 2^11 allocations).

    This is the legacy oracle: it rebuilds a subnet per allocation, as
    the original algorithm did.  The fast path is the mask pipeline of
    :func:`repro.qss.compiled_reduction.iter_compiled_reductions`,
    which yields the same reductions in the same order.
    """
    reductions: List[TReduction] = []
    seen: Set[Tuple[FrozenSet[str], FrozenSet[str]]] = set()
    for allocation in enumerate_allocations(net):
        reduction = reduce_net(net, allocation)
        signature = reduction.signature()
        if signature in seen:
            continue
        seen.add(signature)
        reductions.append(reduction)
    return reductions

"""Mask-based T-reductions over a compiled parent net.

The legacy Reduction Algorithm (:func:`repro.qss.reduction.reduce_net`)
builds a fresh Python :class:`~repro.petrinet.net.PetriNet` for every
T-allocation and :class:`~repro.qss.reduction.TReduction` recompiles each
surviving subnet before the schedulability simulation — one net rebuild
plus one compilation per allocation, in a loop that is exponential in the
number of choices.  This module removes both costs: the parent net is
compiled **once** into a :class:`~repro.petrinet.compiled.CompiledNet`
and every T-reduction is represented as a pair of boolean **masks**
(surviving transitions / surviving places) over the parent's integer
ids.

* :class:`QSSContext` holds the compiled parent plus the structural id
  arrays (producers/consumers per place, presets/postsets per
  transition, choice alternatives) shared by every reduction.
* :meth:`QSSContext.reduce_masks` runs the Reduction Algorithm directly
  on the masks — the same rules, cascades and orderings as
  ``reduce_net``, so the surviving node sets, removal orders and dedup
  signatures are identical — without constructing any intermediate net.
* :class:`CompiledReduction` exposes the per-reduction enabledness /
  successor functions as filtered views of the parent's scalar tables
  (zero per-reduction ``exec`` compiles), T-invariants via an int64
  submatrix of the parent incidence matrix
  (:func:`~repro.petrinet.invariants.fast_minimal_semiflows`, memoized
  per submatrix on the context), and builds a named
  :class:`~repro.petrinet.net.PetriNet` (a subnet of the parent) only
  on demand for reporting.
* :func:`iter_compiled_reductions` streams the allocation product with
  on-the-fly mask-signature dedup, so the exponential allocation list is
  never materialized.

The pipeline starts from the :class:`~repro.petrinet.net.PetriNet` that
:func:`~repro.qss.scheduler.analyse` passes: its arc order fixes the
allocation order, and with it which allocation first-wins dedup keeps.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..petrinet import PetriNet, compile_net
from ..petrinet.compiled import MarkingTuple
from ..petrinet.exceptions import NotFreeChoiceError
from ..petrinet.invariants import fast_minimal_semiflows
from ..petrinet.simulation import search_firing_order
from ..petrinet.structure import is_free_choice
from .allocation import TAllocation


class QSSContext:
    """Shared parent-net state for the mask-based QSS pipeline.

    Built once per analysed net (one compilation, one pass over the
    arcs); every :class:`CompiledReduction` of the net references the
    same context, and the per-submatrix T-invariant memo lives here so
    structurally identical reductions (frequent in symmetric nets such
    as the ``independent_choices`` family) share one semiflow
    computation.
    """

    def __init__(self, net: PetriNet) -> None:
        self.net = net
        self.compiled = compiled = compile_net(net)
        self.n_transitions = len(compiled.transitions)
        self.n_places = len(compiled.places)
        self.t_pre_places: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(p for p, _ in pairs) for pairs in compiled.pre_lists
        )
        self.t_post_places: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(p for p, _ in pairs) for pairs in compiled.post_lists
        )
        producers: List[List[int]] = [[] for _ in range(self.n_places)]
        consumers: List[List[int]] = [[] for _ in range(self.n_places)]
        for t_id in range(self.n_transitions):
            for p_id in self.t_pre_places[t_id]:
                consumers[p_id].append(t_id)
            for p_id in self.t_post_places[t_id]:
                producers[p_id].append(t_id)
        self.place_producers: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(ids) for ids in producers
        )
        self.place_consumers: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(ids) for ids in consumers
        )
        # Choice places in place-id (= insertion) order; the successor
        # alternatives follow the net's postset (arc insertion) order so
        # allocation enumeration — and therefore first-wins dedup —
        # matches the legacy pipeline exactly.
        t_index = compiled.transition_index
        self.choice_alternatives: Tuple[Tuple[int, Tuple[int, ...]], ...] = tuple(
            (p_id, tuple(t_index[t] for t in net.postset_names(compiled.places[p_id])))
            for p_id in range(self.n_places)
            if len(self.place_consumers[p_id]) > 1
        )
        self.source_transition_names: List[str] = [
            compiled.transitions[t]
            for t in range(self.n_transitions)
            if not self.t_pre_places[t]
        ]
        self._semiflow_cache: Dict[bytes, Tuple[np.ndarray, ...]] = {}

    # ------------------------------------------------------------------
    # Allocation streaming
    # ------------------------------------------------------------------
    def iter_raw_allocations(
        self,
    ) -> Iterator[Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]]:
        """Yield ``(combination, excluded transition ids)`` lazily, in ids.

        ``combination`` is one ``(choice place id, chosen transition id)``
        pair per choice place.  The product order matches
        :func:`repro.qss.allocation.enumerate_allocations`, so streaming
        consumers (dedup, fail-fast analysis) observe the reductions in
        the same order as the legacy pipeline.  The name-level
        :class:`TAllocation` is deliberately *not* built here — callers
        construct it via :meth:`make_allocation` only for the
        allocations they keep.
        """
        if not self.choice_alternatives:
            yield (), ()
            return
        options = [
            [(p_id, t_id) for t_id in alternatives]
            for p_id, alternatives in self.choice_alternatives
        ]
        consumers = self.place_consumers
        for combination in itertools.product(*options):
            excluded = tuple(
                t_id
                for p_id, chosen in combination
                for t_id in consumers[p_id]
                if t_id != chosen
            )
            yield combination, excluded

    def make_allocation(
        self, combination: Sequence[Tuple[int, int]]
    ) -> TAllocation:
        """The name-level :class:`TAllocation` of an id combination."""
        places = self.compiled.places
        transitions = self.compiled.transitions
        return TAllocation(
            choices=tuple(
                sorted((places[p_id], transitions[t_id]) for p_id, t_id in combination)
            )
        )

    # ------------------------------------------------------------------
    # The Reduction Algorithm on masks
    # ------------------------------------------------------------------
    def reduce_masks(
        self, excluded: Sequence[int]
    ) -> Tuple[bytes, bytes, Tuple[int, ...], Tuple[int, ...]]:
        """The Reduction Algorithm on masks: excluded ids in, masks out.

        Mirrors :func:`repro.qss.reduction.reduce_net` rule for rule
        (conditions b.i/b.ii, c.i/c.ii and the final fixpoint sweep) in
        the same cascade order, so the surviving masks, the removal
        orders and the dedup signature are exactly the legacy ones — but
        the only state touched is two bytearrays over the parent ids.
        Returns ``(transition_mask, place_mask, removed_transition_ids,
        removed_place_ids)`` without constructing any wrapper object —
        the form the streaming dedup loop consumes, since duplicate
        reductions are discarded before anything else is built.
        """
        t_alive = bytearray([1]) * self.n_transitions
        p_alive = bytearray([1]) * self.n_places
        removed_transitions: List[int] = []
        removed_places: List[int] = []
        producers = self.place_producers
        consumers = self.place_consumers
        t_pre = self.t_pre_places
        t_post = self.t_post_places

        # The cascade below is the hottest loop of the streaming pipeline
        # (it runs once per *allocation*), so the helpers use plain loops
        # instead of any()/all() generator expressions.

        def place_is_source(p_id: int) -> bool:
            for t in producers[p_id]:
                if t_alive[t]:
                    return False
            return True

        def remove_transition(t_id: int) -> None:
            if not t_alive[t_id]:
                return
            postset_places = [p for p in t_post[t_id] if p_alive[p]]
            t_alive[t_id] = 0
            removed_transitions.append(t_id)
            for p_id in postset_places:
                consider_place_removal(p_id)

        def consider_place_removal(p_id: int) -> None:
            if not p_alive[p_id]:
                return
            # (b).i — the place still has another producer in the reduction
            for t in producers[p_id]:
                if t_alive[t]:
                    return
            # (b).ii — keep the place (as a source place) when its consumer
            # is also fed from elsewhere by a non-source place
            for successor in consumers[p_id]:
                if not t_alive[successor]:
                    continue
                for other in t_pre[successor]:
                    if other != p_id and p_alive[other] and not place_is_source(other):
                        return
            successors = [t for t in consumers[p_id] if t_alive[t]]
            p_alive[p_id] = 0
            removed_places.append(p_id)
            for successor in successors:
                consider_transition_removal(successor)

        def consider_transition_removal(t_id: int) -> None:
            if not t_alive[t_id]:
                return
            predecessors = [p for p in t_pre[t_id] if p_alive[p]]
            # (c).i — no predecessor place left
            if not predecessors:
                remove_transition(t_id)
                return
            # (c).ii — every remaining predecessor is a source place
            for p_id in predecessors:
                if not place_is_source(p_id):
                    return
            for p_id in predecessors:
                if p_alive[p_id]:
                    p_alive[p_id] = 0
                    removed_places.append(p_id)
            remove_transition(t_id)

        # Step 2: remove every transition not in the allocation, cascading.
        # Sorted by id to match the legacy sweep over net.transition_names.
        for t_id in sorted(excluded):
            remove_transition(t_id)

        # Step (d): iterate until no rule applies any longer.
        changed = True
        while changed:
            changed = False
            for p_id in range(self.n_places):
                if not p_alive[p_id]:
                    continue
                if not place_is_source(p_id):
                    continue
                keep = False
                for successor in consumers[p_id]:
                    if not t_alive[successor]:
                        continue
                    for other in t_pre[successor]:
                        if (
                            other != p_id
                            and p_alive[other]
                            and not place_is_source(other)
                        ):
                            keep = True
                            break
                    if keep:
                        break
                if keep:
                    continue
                has_live_consumer = False
                for t in consumers[p_id]:
                    if t_alive[t]:
                        has_live_consumer = True
                        break
                if not has_live_consumer and producers[p_id]:
                    # A place that lost both producer and consumer carries
                    # no information; drop it.
                    p_alive[p_id] = 0
                    removed_places.append(p_id)
                    changed = True
            for t_id in range(self.n_transitions):
                if not t_alive[t_id]:
                    continue
                predecessors = [p for p in t_pre[t_id] if p_alive[p]]
                if predecessors:
                    all_sources = True
                    for p_id in predecessors:
                        if not place_is_source(p_id):
                            all_sources = False
                            break
                    if not all_sources:
                        continue
                if not predecessors and t_pre[t_id]:
                    remove_transition(t_id)
                    changed = True

        return (
            bytes(t_alive),
            bytes(p_alive),
            tuple(removed_transitions),
            tuple(removed_places),
        )

    # ------------------------------------------------------------------
    # Invariants (memoized per incidence submatrix)
    # ------------------------------------------------------------------
    def semiflows_for(
        self, t_ids: Sequence[int], p_ids: Sequence[int]
    ) -> Tuple[np.ndarray, ...]:
        """Minimal semiflow vectors of the masked incidence submatrix."""
        sub = self.compiled.incidence[np.ix_(t_ids, p_ids)]
        key = sub.tobytes() + b"|" + np.int64(sub.shape[1]).tobytes()
        cached = self._semiflow_cache.get(key)
        if cached is None:
            cached = tuple(fast_minimal_semiflows(sub))
            self._semiflow_cache[key] = cached
        return cached


class CompiledReduction:
    """A T-reduction as boolean masks over the parent :class:`QSSContext`.

    Offers the same identity surface as
    :class:`~repro.qss.reduction.TReduction` — ``allocation``,
    ``transition_set`` / ``place_set``, ``signature()``,
    ``source_places()`` and a lazily built ``net`` — plus the
    id-level token-game primitives the schedulability check runs on:
    per-reduction enabledness and successor functions that filter the
    parent's scalar preset/delta tables through the masks, with no net
    rebuild and no ``exec`` compilation anywhere.
    """

    __slots__ = (
        "context",
        "allocation",
        "transition_mask",
        "place_mask",
        "removed_transition_ids",
        "removed_place_ids",
        "_cache",
    )

    def __init__(
        self,
        context: QSSContext,
        allocation: TAllocation,
        transition_mask: bytes,
        place_mask: bytes,
        removed_transition_ids: Tuple[int, ...],
        removed_place_ids: Tuple[int, ...],
    ) -> None:
        self.context = context
        self.allocation = allocation
        self.transition_mask = transition_mask
        self.place_mask = place_mask
        self.removed_transition_ids = removed_transition_ids
        self.removed_place_ids = removed_place_ids
        self._cache: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def transition_ids(self) -> Tuple[int, ...]:
        ids = self._cache.get("transition_ids")
        if ids is None:
            ids = tuple(
                t for t, alive in enumerate(self.transition_mask) if alive
            )
            self._cache["transition_ids"] = ids
        return ids  # type: ignore[return-value]

    @property
    def place_ids(self) -> Tuple[int, ...]:
        ids = self._cache.get("place_ids")
        if ids is None:
            ids = tuple(p for p, alive in enumerate(self.place_mask) if alive)
            self._cache["place_ids"] = ids
        return ids  # type: ignore[return-value]

    @property
    def transition_names(self) -> List[str]:
        names = self.context.compiled.transitions
        return [names[t] for t in self.transition_ids]

    @property
    def place_names(self) -> List[str]:
        names = self.context.compiled.places
        return [names[p] for p in self.place_ids]

    @property
    def removed_transitions(self) -> Tuple[str, ...]:
        names = self.context.compiled.transitions
        return tuple(names[t] for t in self.removed_transition_ids)

    @property
    def removed_places(self) -> Tuple[str, ...]:
        names = self.context.compiled.places
        return tuple(names[p] for p in self.removed_place_ids)

    @property
    def transition_set(self) -> FrozenSet[str]:
        return frozenset(self.transition_names)

    @property
    def place_set(self) -> FrozenSet[str]:
        return frozenset(self.place_names)

    def signature(self) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """The legacy name-level dedup signature (for cross-checking)."""
        return (self.transition_set, self.place_set)

    def source_place_ids(self) -> List[int]:
        """Ids of surviving places left without any surviving producer."""
        producers = self.context.place_producers
        t_mask = self.transition_mask
        return [
            p
            for p in self.place_ids
            if not any(t_mask[t] for t in producers[p])
        ]

    def source_places(self) -> List[str]:
        """Names of the reduction's producer-less places (Figure 7 symptom)."""
        names = self.context.compiled.places
        return [names[p] for p in self.source_place_ids()]

    # ------------------------------------------------------------------
    # Token game restricted to the masks
    # ------------------------------------------------------------------
    @property
    def initial(self) -> MarkingTuple:
        """Parent initial marking restricted to the surviving places."""
        marking = self._cache.get("initial")
        if marking is None:
            p_mask = self.place_mask
            marking = tuple(
                tokens if p_mask[p] else 0
                for p, tokens in enumerate(self.context.compiled.initial)
            )
            self._cache["initial"] = marking
        return marking  # type: ignore[return-value]

    def restrict_marking(self, marking: Mapping[str, int]) -> MarkingTuple:
        """A name-keyed marking as a parent tuple, zeroed off the masks."""
        compiled = self.context.compiled
        p_mask = self.place_mask
        get = marking.get
        return tuple(
            get(place, 0) if p_mask[p] else 0
            for p, place in enumerate(compiled.places)
        )

    @property
    def masked_pre_lists(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per-transition ``(place_id, weight)`` presets filtered by the
        place mask, indexed by parent transition id (dead transitions keep
        their full rows but are never fired)."""
        lists = self._cache.get("masked_pre_lists")
        if lists is None:
            p_mask = self.place_mask
            lists = tuple(
                tuple(pair for pair in pairs if p_mask[pair[0]])
                for pairs in self.context.compiled.pre_lists
            )
            self._cache["masked_pre_lists"] = lists
        return lists  # type: ignore[return-value]

    @property
    def masked_delta_lists(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per-transition combined token deltas restricted to the masks."""
        lists = self._cache.get("masked_delta_lists")
        if lists is None:
            p_mask = self.place_mask
            compiled = self.context.compiled
            out: List[Tuple[Tuple[int, int], ...]] = []
            for t_id in range(self.context.n_transitions):
                delta: Dict[int, int] = {}
                for p_id, weight in compiled.pre_lists[t_id]:
                    if p_mask[p_id]:
                        delta[p_id] = delta.get(p_id, 0) - weight
                for p_id, weight in compiled.post_lists[t_id]:
                    if p_mask[p_id]:
                        delta[p_id] = delta.get(p_id, 0) + weight
                out.append(tuple((p, d) for p, d in delta.items() if d))
            lists = tuple(out)
            self._cache["masked_delta_lists"] = lists
        return lists  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Invariants and cycles
    # ------------------------------------------------------------------
    def t_invariants(self) -> List[Dict[str, int]]:
        """Minimal T-invariants of the reduction, straight off the parent.

        Computed on the int64 incidence submatrix selected by the masks
        (identical values, row and column order as the legacy reduced
        net's own incidence matrix) and memoized per submatrix on the
        context, so structurally identical reductions pay once.
        """
        invariants = self._cache.get("t_invariants")
        if invariants is None:
            t_ids = self.transition_ids
            solutions = self.context.semiflows_for(t_ids, self.place_ids)
            names = self.context.compiled.transitions
            invariants = [
                {
                    names[t_ids[i]]: int(value)
                    for i, value in enumerate(solution)
                    if value
                }
                for solution in solutions
            ]
            invariants.sort(key=lambda inv: sorted(inv.items()))
            self._cache["t_invariants"] = invariants
        return invariants  # type: ignore[return-value]

    def find_firing_sequence(
        self, firing_counts: Mapping[str, int], start: MarkingTuple
    ) -> Optional[List[str]]:
        """Executable ordering of ``firing_counts`` under masked semantics.

        The memoized DFS of the legacy engine
        (:func:`~repro.petrinet.simulation.search_firing_order`, same
        candidate order), running on parent marking tuples filtered
        through the masks, so it returns the legacy cycle exactly.
        """
        transition_index = self.context.compiled.transition_index
        remaining: Dict[int, int] = {}
        for name, count in firing_counts.items():
            if count > 0:
                remaining[transition_index[name]] = int(count)
        # bind the masked tables once; the property indirection would
        # otherwise run on every firing attempt of the DFS
        pre_lists = self.masked_pre_lists
        delta_lists = self.masked_delta_lists

        def is_enabled(t_id: int, marking) -> bool:
            for p_id, weight in pre_lists[t_id]:
                if marking[p_id] < weight:
                    return False
            return True

        def fire(t_id: int, marking):
            result = list(marking)
            for p_id, delta in delta_lists[t_id]:
                result[p_id] += delta
            return tuple(result)

        sequence = search_firing_order(start, remaining, is_enabled, fire)
        if sequence is None:
            return None
        names = self.context.compiled.transitions
        return [names[t] for t in sequence]

    def find_finite_complete_cycle(
        self, firing_counts: Mapping[str, int], start: MarkingTuple
    ) -> Optional[List[str]]:
        """A firing sequence realizing the counts and returning to ``start``."""
        sequence = self.find_firing_sequence(firing_counts, start)
        if sequence is None:
            return None
        transition_index = self.context.compiled.transition_index
        delta_lists = self.masked_delta_lists
        current = list(start)
        for name in sequence:
            for p_id, delta in delta_lists[transition_index[name]]:
                current[p_id] += delta
        if tuple(current) != start:
            return None
        return sequence

    # ------------------------------------------------------------------
    # Named view (reporting only)
    # ------------------------------------------------------------------
    @property
    def net(self) -> PetriNet:
        """The reduction as a named :class:`PetriNet`, built on demand.

        The hot pipeline never calls this; it exists so reports, code
        generation and the differential tests can compare against the
        legacy representation.  The result equals the net produced by
        ``reduce_net`` for the same allocation: the induced subnet of
        the parent with the initial marking restricted to the surviving
        places.
        """
        built = self._cache.get("net")
        if built is None:
            source = self.context.net
            built = source.subnet(
                self.place_names,
                self.transition_names,
                name=f"{source.name}_red",
            )
            self._cache["net"] = built
        return built  # type: ignore[return-value]

    def __repr__(self) -> str:
        return (
            f"CompiledReduction(net={self.context.compiled.name!r}, "
            f"transitions={len(self.transition_ids)}/{self.context.n_transitions}, "
            f"places={len(self.place_ids)}/{self.context.n_places})"
        )


def iter_compiled_reductions(net: PetriNet) -> Iterator[CompiledReduction]:
    """Stream the distinct T-reductions of ``net`` as mask views.

    The allocation product is consumed lazily with on-the-fly
    mask-signature dedup, so the (exponential) allocation list is never
    materialized and consumers such as ``fail_fast`` analyses can stop
    early.  Enumeration order and first-wins dedup match the legacy
    :func:`repro.qss.reduction.enumerate_reductions` exactly.

    Raises
    ------
    NotFreeChoiceError
        If the net is not free-choice.
    """
    ctx = QSSContext(net)
    if not is_free_choice(ctx.net):
        raise NotFreeChoiceError(
            f"net {ctx.compiled.name!r} is not free-choice; quasi-static "
            "scheduling is defined for Free-Choice Petri Nets"
        )
    seen: set = set()
    for combination, excluded in ctx.iter_raw_allocations():
        masks = ctx.reduce_masks(excluded)
        signature = masks[0] + b"|" + masks[1]
        if signature in seen:
            continue
        seen.add(signature)
        yield CompiledReduction(
            context=ctx,
            allocation=ctx.make_allocation(combination),
            transition_mask=masks[0],
            place_mask=masks[1],
            removed_transition_ids=masks[2],
            removed_place_ids=masks[3],
        )


def count_distinct_reductions(net: PetriNet) -> int:
    """Number of distinct T-reductions (the size of a valid schedule).

    The count streams over reduction masks without building a single
    subnet.
    """
    return sum(1 for _ in iter_compiled_reductions(net))

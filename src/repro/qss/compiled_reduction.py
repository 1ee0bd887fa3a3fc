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
  It also reports which choice places its sweep *read*: the only ones
  whose choice can change its result.
* :class:`CompiledReduction` searches its finite complete cycle with
  one greedy walk over the parent's scalar preset/delta tables (exact
  on a conflict-free reduction; the proof is in
  :meth:`CompiledReduction.find_finite_complete_cycle`), computes
  T-invariants on an int64 submatrix of the parent incidence matrix
  (:func:`~repro.petrinet.invariants.fast_minimal_semiflows`, memoized
  per submatrix on the context), and builds a named
  :class:`~repro.petrinet.net.PetriNet` (a subnet of the parent) only
  on demand for reporting.
* :func:`iter_compiled_reductions` walks the allocation product in
  order with on-the-fly mask-signature dedup, so the exponential
  allocation list is never materialized.  It runs one removal cascade
  per *cube* (the choices at the places a cascade read) rather than one
  per allocation, and skips every allocation inside a recorded cube: its
  cascade would repeat byte for byte.  On the benchmark nets that is one
  cascade per distinct T-reduction (ATM: 120 instead of 2048).

The pipeline starts from the :class:`~repro.petrinet.net.PetriNet` that
:func:`~repro.qss.scheduler.analyse` passes: its arc order fixes the
allocation order, and with it which allocation first-wins dedup keeps.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..petrinet import PetriNet, compile_net
from ..petrinet.compiled import MarkingTuple
from ..petrinet.exceptions import NotFreeChoiceError
from ..petrinet.invariants import fast_minimal_semiflows
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
        # (smallest alternative id, position in choice_alternatives,
        # alternatives) per choice place, in the order the step-2 sweep
        # of reduce_masks reaches them, then a sentinel above every id
        self._choice_checks: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = tuple(
            sorted(
                (min(alternatives), position, alternatives)
                for position, (_, alternatives) in enumerate(self.choice_alternatives)
            )
        ) + ((self.n_transitions, -1, ()),)
        self.source_transition_names: List[str] = [
            compiled.transitions[t]
            for t in range(self.n_transitions)
            if not self.t_pre_places[t]
        ]
        self._semiflow_cache: Dict[bytes, Tuple[np.ndarray, ...]] = {}

    # ------------------------------------------------------------------
    # Allocations
    # ------------------------------------------------------------------
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
    ) -> Tuple[bytes, bytes, Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
        """The Reduction Algorithm on masks: excluded ids in, masks out.

        Mirrors :func:`repro.qss.reduction.reduce_net` rule for rule
        (conditions b.i/b.ii, c.i/c.ii and the final fixpoint sweep) in
        the same cascade order, so the surviving masks, the removal
        orders and the dedup signature are exactly the legacy ones — but
        the only state touched is two bytearrays over the parent ids.
        Returns ``(transition_mask, place_mask, removed_transition_ids,
        removed_place_ids, read_positions)`` without constructing any
        wrapper object — the form the streaming dedup loop consumes,
        since duplicate reductions are discarded before anything else is
        built.

        ``read_positions`` lists, ascending, the positions in
        :attr:`choice_alternatives` of the choice places the step-2
        sweep *read*: those with an alternative still alive when the
        sweep first reaches an excluded id at or above the place's
        smallest alternative id (or at the end of the sweep, if it never
        does).  Every other choice place is *settled*, and the choice
        made there cannot change the result (the proof is in
        :func:`iter_compiled_reductions`).
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
        # (it runs once per cube the walk records), so the helpers use
        # plain loops instead of any()/all() generator expressions.

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
        # Each choice place is tested once, just before the first removal
        # at or above its smallest alternative id; the checks end in a
        # sentinel above every id, and the ones the sweep never reached
        # are tested after it.
        checks = self._choice_checks
        read: List[int] = []
        pending = 0
        for t_id in sorted(excluded):
            while checks[pending][0] <= t_id:
                _, position, alternatives = checks[pending]
                for t in alternatives:
                    if t_alive[t]:
                        read.append(position)
                        break
                pending += 1
            remove_transition(t_id)
        for _, position, alternatives in checks[pending:-1]:
            for t in alternatives:
                if t_alive[t]:
                    read.append(position)
                    break

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
            tuple(sorted(read)),
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
    ``source_places()`` and a lazily built ``net`` — plus what the
    schedulability check runs on: the initial marking restricted to the
    masks, T-invariants off the parent incidence matrix, and a greedy
    cycle walk over the parent's own preset/delta tables, with no net
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

    def find_finite_complete_cycle(
        self, firing_counts: Mapping[str, int], start: MarkingTuple
    ) -> Optional[List[str]]:
        """A firing sequence realizing the counts and returning to ``start``.

        One greedy walk over the parent's :attr:`CompiledNet.pre_lists`
        and :attr:`CompiledNet.delta_lists`: fire the first transition,
        in ``firing_counts`` order, that is enabled and has count left,
        until every count is spent; ``None`` when no such transition is
        enabled, or when the walk ends off ``start``.  It returns exactly
        what the legacy oracle's backtracking DFS
        (:func:`~repro.petrinet.simulation.search_firing_order`, same
        candidate order) returns on the rebuilt reduced net, because of
        two facts.

        *The walk is exact and follows the DFS.*  A T-reduction is
        conflict-free: step 2 of :meth:`QSSContext.reduce_masks` removes
        every excluded transition, so a choice place keeps at most its
        allocated consumer, and every other place has at most one
        consumer in the parent.  A conflict-free net is persistent:
        firing one transition never disables another.  By Keller's
        theorem for persistent systems (R. M. Keller, 1975; Landweber and
        Robertson, JACM 25(3), 1978), if any ordering fires the counts X
        from M, then a walk that fires enabled transitions with count
        left cannot get stuck before X is spent; so the walk returns
        ``None`` exactly when the DFS does.  When an ordering exists,
        every child state of the DFS can again be ordered, so the DFS
        never backtracks, and its first descent, "the first enabled
        candidate in counts order" at every step, is this walk.

        *The parent's tables are the reduction's.*  No live transition
        has a removed place in its preset or postset.  Rules (b).i and
        (d) remove a place only when all of its producers are dead,
        (c).ii removes only source places, and transitions only die, so
        no live transition produces into a removed place.  A live
        consumer of a place removed by (b) reaches
        ``consider_transition_removal`` with only source places left, or
        none, and is removed; otherwise (b).ii would have kept the
        place.  A place removed by (c).ii is an input of a join with at
        least two inputs, and under the paper's free choice that join is
        its only consumer.  A place removed by (d) has no live consumer.
        The counts name live transitions only, so the removed places
        keep the zeros that :attr:`initial` and :meth:`restrict_marking`
        give them, and the parent rows of the fired transitions are the
        masked rows.
        """
        compiled = self.context.compiled
        transition_index = compiled.transition_index
        remaining: Dict[int, int] = {}
        for name, count in firing_counts.items():
            if count > 0:
                remaining[transition_index[name]] = int(count)
        pre_lists = compiled.pre_lists
        delta_lists = compiled.delta_lists
        marking = list(start)
        sequence: List[int] = []
        while remaining:
            # the first transition, in counts order, whose preset the
            # marking covers
            for t_id in remaining:
                for p_id, weight in pre_lists[t_id]:
                    if marking[p_id] < weight:
                        break
                else:
                    break
            else:
                return None
            for p_id, delta in delta_lists[t_id]:
                marking[p_id] += delta
            sequence.append(t_id)
            if remaining[t_id] == 1:
                del remaining[t_id]
            else:
                remaining[t_id] -= 1
        if tuple(marking) != start:
            return None
        names = compiled.transitions
        return [names[t] for t in sequence]

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

    The T-allocations are walked lazily, in the order of
    ``itertools.product`` over :attr:`QSSContext.choice_alternatives`
    (an odometer, the last choice place fastest), with first-wins
    mask-signature dedup, so the (exponential) allocation list is never
    materialized and consumers such as ``fail_fast`` analyses can stop
    early.  The yielded reductions, their allocations, masks and removal
    orders match the legacy :func:`repro.qss.reduction.enumerate_reductions`
    exactly.

    The walk runs the removal cascade (:meth:`QSSContext.reduce_masks`)
    only for allocations whose cascade could differ from every earlier
    one.  Each cascade records a *cube*: the allocation's choices at
    the choice places its sweep *read*; every allocation that agrees
    with it there repeats the cascade byte for byte, so the walk skips
    it.  Cubes are grouped by their read positions, and each odometer
    state costs one set probe per group.  On a hit, or right after a
    cascade, the walk jumps past the cube's trailing run: it advances at
    the cube's last read position with carry and resets the positions
    after it.  A cube without read positions covers every allocation and
    ends the walk.

    *Why a skipped cascade repeats.*  A choice place is settled in a
    run when every one of its alternatives is dead at the moment the
    step-2 sweep reaches the first excluded id at or above its smallest
    alternative id (or at the end of the sweep, if no such id remains).
    Take allocations X and Y that differ only at places settled in X's
    run.  Their excluded lists differ only in ids of those places'
    alternatives.  Take the differing places in order of their smallest
    alternative id.  Both sweeps make identical calls up to the first of
    them, so their states are equal there.  Every alternative of that
    place is dead at that point, and ``remove_transition`` on a dead id
    returns at once, so every differing id is a no-op.  Induct to the
    next place.  After the sweep the states are equal, and step (d) is
    a function of the state, so masks *and* removal orders are
    identical.  The argument does not use free choice.  A skipped
    allocation is therefore never the first with its reduction, and the
    walk yields exactly the sequence of the full product walk.

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
    choices = ctx.choice_alternatives
    radices = [len(alternatives) for _, alternatives in choices]
    # the excluded ids of each choice, by position and alternative index
    excluded_by_choice = [
        [
            tuple(t for t in ctx.place_consumers[p_id] if t != chosen)
            for chosen in alternatives
        ]
        for p_id, alternatives in choices
    ]
    digits = [0] * len(choices)
    # read positions -> (their digits' getter, the cubes' recorded digits)
    cubes: Dict[Tuple[int, ...], Tuple[itemgetter, set]] = {}
    seen: set = set()
    while True:
        for read, (key_of, keys) in cubes.items():
            if key_of(digits) in keys:
                break
        else:
            t_mask, p_mask, removed_t, removed_p, read = ctx.reduce_masks(
                [t for i, d in enumerate(digits) for t in excluded_by_choice[i][d]]
            )
            signature = t_mask + b"|" + p_mask
            if signature not in seen:
                seen.add(signature)
                combination = [
                    (p_id, alternatives[d])
                    for (p_id, alternatives), d in zip(choices, digits)
                ]
                yield CompiledReduction(
                    context=ctx,
                    allocation=ctx.make_allocation(combination),
                    transition_mask=t_mask,
                    place_mask=p_mask,
                    removed_transition_ids=removed_t,
                    removed_place_ids=removed_p,
                )
            if not read:
                return
            if read not in cubes:
                cubes[read] = (itemgetter(*read), set())
            key_of, keys = cubes[read]
            keys.add(key_of(digits))
        # every allocation sharing the digits up to the cube's last read
        # position lies in the cube: jump past them
        position = read[-1]
        digits[position + 1 :] = [0] * (len(digits) - position - 1)
        while True:
            digits[position] += 1
            if digits[position] < radices[position]:
                break
            digits[position] = 0
            position -= 1
            if position < 0:
                return


def count_distinct_reductions(net: PetriNet) -> int:
    """Number of distinct T-reductions (the size of a valid schedule).

    The count runs the reduction walk of :func:`iter_compiled_reductions`
    without building a single subnet, so it costs one removal cascade per
    cube, not one per T-allocation.
    """
    return sum(1 for _ in iter_compiled_reductions(net))

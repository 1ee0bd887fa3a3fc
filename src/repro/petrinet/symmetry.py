"""Structural symmetry reduction for state-space exploration.

Net families built from interchangeable instances — the parallel
branches of :func:`~repro.petrinet.generators.fork_join_pipeline`, the
identical alternatives of a choice fan, replicated stations of a
producer/consumer ring — have reachability graphs whose states come in
orbits: permuting the instances of a marking yields another reachable
marking with the same future.  Exploring one *canonical representative*
per orbit shrinks the explored space by up to ``k!`` for ``k``
interchangeable instances, which is exactly the lever an out-of-core
exploration (:mod:`repro.petrinet.outofcore`) wants: the explored space
shrinks before the stored space does.

The reduction is the classical *scalarset* symmetry of explicit-state
model checkers (Murφ, SPIN), expressed structurally:

* a :class:`SymmetryGroup` is a set of ``k`` interchangeable
  *blocks* — parallel tuples of place ids and transition ids — such
  that swapping any two blocks (places and transitions together) maps
  the net onto itself (same ``pre``/``post`` matrices, same costs);
* :func:`validate_group` proves that property by checking every
  adjacent block transposition against the compiled matrices (adjacent
  transpositions generate the full symmetric group on the blocks);
* :func:`canonicalize` maps a marking matrix to canonical form by
  sorting each group's block sub-vectors lexicographically — any
  deterministic, permutation-invariant order works, and a sort is one
  vectorized pass over a whole frontier;
* :func:`detect_symmetries` finds candidate groups automatically by
  color refinement (1-dimensional Weisfeiler–Lehman on the bipartite
  place/transition graph, arc weights as edge labels) followed by an
  alignment pass that threads same-color nodes into consistent blocks.
  Every detected group is validated before it is returned, so
  detection can be incomplete but never unsound.

Soundness: each group's block swaps are validated net automorphisms,
so for any marking ``m`` the canonical form ``canon(m)`` is in the
orbit of ``m`` and ``m → m'`` implies ``canon(m) → σ(m')`` for the
permutation σ that canonicalized ``m``.  By induction the canonical
exploration visits at least one representative of every reachable
orbit: deadlock-freedom, boundedness and orbit-wise reachability are
preserved.  What is *not* preserved: per-transition distinctions
(liveness of ``t_0`` vs its sibling ``t_1``) and the node numbering of
the full graph — a canonical graph is a quotient, never bit-identical
to the unreduced one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .compiled import CompiledNet

__all__ = [
    "SymmetryGroup",
    "canonicalize",
    "detect_symmetries",
    "group_from_names",
    "orbit_place_bounds",
    "resolve_symmetry",
    "validate_group",
]


@dataclass(frozen=True)
class SymmetryGroup:
    """``k`` interchangeable blocks of place ids and transition ids.

    ``place_blocks[i][j]`` is the place of block ``i`` in position
    ``j``; swapping blocks ``i`` and ``i'`` exchanges position ``j`` of
    both for every ``j`` (and likewise for ``transition_blocks``).  All
    blocks of one kind have equal width; one of the two kinds may be
    empty (e.g. identical parallel transitions between the same
    places).  Construct via :func:`detect_symmetries` or
    :func:`group_from_names` — both validate the automorphism property.
    """

    place_blocks: Tuple[Tuple[int, ...], ...]
    transition_blocks: Tuple[Tuple[int, ...], ...]

    @property
    def k(self) -> int:
        """Number of interchangeable blocks."""
        return len(self.place_blocks) or len(self.transition_blocks)

    def __post_init__(self) -> None:
        widths_p = {len(b) for b in self.place_blocks}
        widths_t = {len(b) for b in self.transition_blocks}
        if len(widths_p) > 1 or len(widths_t) > 1:
            raise ValueError("all blocks of one kind must have equal width")
        if (
            self.place_blocks
            and self.transition_blocks
            and len(self.place_blocks) != len(self.transition_blocks)
        ):
            raise ValueError(
                "place and transition blocks must come in the same count"
            )
        if self.k < 2:
            raise ValueError("a symmetry group needs at least two blocks")


def validate_group(compiled: CompiledNet, group: SymmetryGroup) -> None:
    """Prove ``group`` is a net symmetry; raise ``ValueError`` otherwise.

    Checks every adjacent block transposition: permuting places and
    transitions blockwise must leave ``pre``, ``post`` and the
    transition costs invariant.  Adjacent transpositions generate the
    full symmetric group on the blocks, so passing here means *every*
    block permutation is an automorphism.
    """
    n_places = len(compiled.places)
    n_transitions = len(compiled.transitions)
    flat_p = [p for block in group.place_blocks for p in block]
    flat_t = [t for block in group.transition_blocks for t in block]
    if len(set(flat_p)) != len(flat_p) or len(set(flat_t)) != len(flat_t):
        raise ValueError("symmetry blocks overlap")
    if flat_p and not all(0 <= p < n_places for p in flat_p):
        raise ValueError("place id out of range in symmetry group")
    if flat_t and not all(0 <= t < n_transitions for t in flat_t):
        raise ValueError("transition id out of range in symmetry group")
    costs = np.asarray(compiled.costs, dtype=np.int64)
    for i in range(group.k - 1):
        pperm = np.arange(n_places)
        tperm = np.arange(n_transitions)
        if group.place_blocks:
            a = np.asarray(group.place_blocks[i], dtype=np.int64)
            b = np.asarray(group.place_blocks[i + 1], dtype=np.int64)
            pperm[a], pperm[b] = b, a
        if group.transition_blocks:
            a = np.asarray(group.transition_blocks[i], dtype=np.int64)
            b = np.asarray(group.transition_blocks[i + 1], dtype=np.int64)
            tperm[a], tperm[b] = b, a
        if not (
            np.array_equal(compiled.pre[tperm][:, pperm], compiled.pre)
            and np.array_equal(compiled.post[tperm][:, pperm], compiled.post)
            and np.array_equal(costs[tperm], costs)
        ):
            raise ValueError(
                f"blocks {i} and {i + 1} are not interchangeable: swapping "
                "them does not map the net onto itself"
            )


def group_from_names(
    compiled: CompiledNet,
    place_blocks: Sequence[Sequence[str]],
    transition_blocks: Sequence[Sequence[str]] = (),
) -> SymmetryGroup:
    """Build and validate a :class:`SymmetryGroup` from node names."""
    group = SymmetryGroup(
        place_blocks=tuple(
            tuple(compiled.place_index[p] for p in block)
            for block in place_blocks
        ),
        transition_blocks=tuple(
            tuple(compiled.transition_index[t] for t in block)
            for block in transition_blocks
        ),
    )
    validate_group(compiled, group)
    return group


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
def canonicalize(
    matrix: np.ndarray, groups: Sequence[SymmetryGroup]
) -> np.ndarray:
    """Canonical representative of each row's orbit (copy; rows or 1-D).

    Per group, the ``(k, w)`` block sub-vectors of every row are sorted
    lexicographically by token counts — a composition of validated
    block swaps, so the result is in the input's orbit.  Groups are
    node-disjoint (enforced at detection/validation), hence the passes
    commute and the representative is deterministic.
    """
    out = np.array(matrix, dtype=np.int64)
    if not groups:
        return out
    rows = out[np.newaxis, :] if out.ndim == 1 else out
    for group in groups:
        if not group.place_blocks:
            continue  # transition-only symmetry leaves markings unchanged
        ids = np.asarray(group.place_blocks, dtype=np.int64)  # (k, w)
        k, w = ids.shape
        sub = rows[:, ids.reshape(-1)].reshape(rows.shape[0], k, w)
        # lexsort's *last* key is primary: feed columns w-1 .. 0
        order = np.lexsort(sub.transpose(2, 0, 1)[::-1], axis=-1)
        sub = np.take_along_axis(sub, order[:, :, np.newaxis], axis=1)
        rows[:, ids.reshape(-1)] = sub.reshape(rows.shape[0], k * w)
    return rows[0] if out.ndim == 1 else rows


def orbit_place_bounds(
    bounds: np.ndarray, groups: Sequence[SymmetryGroup]
) -> np.ndarray:
    """Lift per-place column maxima of a *canonical* matrix to true bounds.

    Canonical form sorts blocks, so position ``j`` of a low-sorted
    block under-reports what that concrete place can reach — but the
    orbit of every canonical marking is reachable, so the true bound of
    a place at position ``j`` of any block is the max over position
    ``j`` of *all* blocks in its group.  Places outside every group are
    exact as-is.
    """
    out = np.array(bounds, dtype=np.int64)
    for group in groups:
        if not group.place_blocks:
            continue
        ids = np.asarray(group.place_blocks, dtype=np.int64)  # (k, w)
        out[ids.reshape(-1)] = np.repeat(
            out[ids].max(axis=0)[np.newaxis, :], ids.shape[0], axis=0
        ).reshape(-1)
    return out


# ----------------------------------------------------------------------
# Automatic detection: color refinement + block alignment
# ----------------------------------------------------------------------
def _refine_colors(compiled: CompiledNet) -> Tuple[List[int], List[int]]:
    """1-WL color refinement on the bipartite place/transition graph.

    Places start in one color, transitions are split by cost; each
    round recolors a node by the multiset of (arc weight, direction,
    neighbor color) around it, until the partition is stable.  Two
    nodes that any net automorphism exchanges necessarily share a final
    color (the converse may fail — which is why detected groups are
    validated, not trusted).
    """
    pre = compiled.pre
    post = compiled.post
    n_transitions, n_places = pre.shape
    pcol = [0] * n_places
    cost_rank = {c: i for i, c in enumerate(sorted(set(compiled.costs)))}
    tcol = [cost_rank[c] for c in compiled.costs]
    p_arcs: List[List[Tuple[int, int, int]]] = [[] for _ in range(n_places)]
    t_arcs: List[List[Tuple[int, int, int]]] = [[] for _ in range(n_transitions)]
    for t in range(n_transitions):
        for p in np.flatnonzero(pre[t]):
            w = int(pre[t, p])
            p_arcs[p].append((0, w, t))  # consumed by t
            t_arcs[t].append((0, w, p))
        for p in np.flatnonzero(post[t]):
            w = int(post[t, p])
            p_arcs[p].append((1, w, t))  # produced by t
            t_arcs[t].append((1, w, p))
    while True:
        psig = [
            (pcol[p], tuple(sorted((d, w, tcol[t]) for d, w, t in p_arcs[p])))
            for p in range(n_places)
        ]
        tsig = [
            (tcol[t], tuple(sorted((d, w, pcol[p]) for d, w, p in t_arcs[t])))
            for t in range(n_transitions)
        ]
        new_pcol = _rank(psig)
        new_tcol = _rank(tsig)
        if new_pcol == pcol and new_tcol == tcol:
            return pcol, tcol
        pcol, tcol = new_pcol, new_tcol


def _rank(signatures: list) -> List[int]:
    order = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [order[sig] for sig in signatures]


def detect_symmetries(compiled: CompiledNet) -> Tuple[SymmetryGroup, ...]:
    """Find validated symmetry groups of ``compiled`` automatically.

    Candidate orbits come from color refinement; a same-color class of
    size ``k ≥ 2`` seeds ``k`` blocks, and an alignment fixpoint
    threads every other size-``k`` class through them (a node joins
    block ``i`` when exactly one member of its class is adjacent — with
    matching arc weight and direction — to an already-aligned block-
    ``i`` node).  Fully aligned classes become the block positions;
    each assembled group is kept only if :func:`validate_group` proves
    it.  Detection is deliberately conservative: nested or wreathed
    symmetries (interchangeable branches *inside* interchangeable
    streams) surface at most one level, and ambiguous alignments are
    dropped rather than guessed.
    """
    pcol, tcol = _refine_colors(compiled)
    pre = compiled.pre
    post = compiled.post
    n_transitions, n_places = pre.shape

    place_classes: Dict[int, List[int]] = defaultdict(list)
    trans_classes: Dict[int, List[int]] = defaultdict(list)
    for p in range(n_places):
        place_classes[pcol[p]].append(p)
    for t in range(n_transitions):
        trans_classes[tcol[t]].append(t)

    # seeds, deterministically: place classes first, then transitions,
    # each ordered by smallest member
    seeds: List[Tuple[str, List[int]]] = [
        ("p", members)
        for _, members in sorted(
            place_classes.items(), key=lambda kv: kv[1][0]
        )
        if len(members) >= 2
    ] + [
        ("t", members)
        for _, members in sorted(
            trans_classes.items(), key=lambda kv: kv[1][0]
        )
        if len(members) >= 2
    ]

    used_p: set = set()
    used_t: set = set()
    groups: List[SymmetryGroup] = []

    for kind, members in seeds:
        if kind == "p" and any(p in used_p for p in members):
            continue
        if kind == "t" and any(t in used_t for t in members):
            continue
        k = len(members)
        group = _align_group(
            compiled, kind, members, k, pcol, tcol,
            place_classes, trans_classes, used_p, used_t,
        )
        if group is None:
            continue
        try:
            validate_group(compiled, group)
        except ValueError:
            continue
        groups.append(group)
        used_p.update(p for block in group.place_blocks for p in block)
        used_t.update(t for block in group.transition_blocks for t in block)
    return tuple(groups)


def _align_group(
    compiled: CompiledNet,
    seed_kind: str,
    seed_members: List[int],
    k: int,
    pcol: List[int],
    tcol: List[int],
    place_classes: Dict[int, List[int]],
    trans_classes: Dict[int, List[int]],
    used_p: set,
    used_t: set,
) -> Optional[SymmetryGroup]:
    """Thread same-color classes into ``k`` consistent blocks."""
    pre = compiled.pre
    post = compiled.post
    align_p: Dict[int, int] = {}
    align_t: Dict[int, int] = {}
    if seed_kind == "p":
        for i, p in enumerate(sorted(seed_members)):
            align_p[p] = i
    else:
        for i, t in enumerate(sorted(seed_members)):
            align_t[t] = i

    def class_of(kind: str, node: int) -> List[int]:
        if kind == "p":
            return place_classes[pcol[node]]
        return trans_classes[tcol[node]]

    changed = True
    while changed:
        changed = False
        # propagate place -> adjacent transitions
        for p, block in list(align_p.items()):
            for matrix in (pre, post):
                for t in np.flatnonzero(matrix[:, p]):
                    t = int(t)
                    if t in align_t or t in used_t:
                        continue
                    cls = class_of("t", t)
                    if len(cls) != k:
                        continue
                    w = matrix[t, p]
                    cands = [z for z in cls if matrix[z, p] == w]
                    if len(cands) == 1:
                        align_t[cands[0]] = block
                        changed = True
        # propagate transition -> adjacent places
        for t, block in list(align_t.items()):
            for matrix in (pre, post):
                for p in np.flatnonzero(matrix[t]):
                    p = int(p)
                    if p in align_p or p in used_p:
                        continue
                    cls = class_of("p", p)
                    if len(cls) != k:
                        continue
                    w = matrix[t, p]
                    cands = [z for z in cls if matrix[t, z] == w]
                    if len(cands) == 1:
                        align_p[cands[0]] = block
                        changed = True

    # keep only classes whose k members aligned to k distinct blocks
    place_blocks: List[List[int]] = [[] for _ in range(k)]
    trans_blocks: List[List[int]] = [[] for _ in range(k)]
    for classes, align, blocks in (
        (place_classes, align_p, place_blocks),
        (trans_classes, align_t, trans_blocks),
    ):
        for _, members in sorted(classes.items(), key=lambda kv: kv[1][0]):
            if len(members) != k:
                continue
            assignment = {align.get(m) for m in members}
            if None in assignment or len(assignment) != k:
                continue
            for m in members:
                blocks[align[m]].append(m)
    if not any(place_blocks) and not any(trans_blocks):
        return None
    try:
        return SymmetryGroup(
            place_blocks=(
                tuple(tuple(b) for b in place_blocks)
                if any(place_blocks)
                else ()
            ),
            transition_blocks=(
                tuple(tuple(b) for b in trans_blocks)
                if any(trans_blocks)
                else ()
            ),
        )
    except ValueError:
        return None


# ----------------------------------------------------------------------
# Resolution helper shared by the exploration entry points
# ----------------------------------------------------------------------
SymmetrySpec = Union[None, str, SymmetryGroup, Iterable[SymmetryGroup]]


def resolve_symmetry(
    compiled: CompiledNet, symmetry: SymmetrySpec
) -> Tuple[SymmetryGroup, ...]:
    """Normalize a ``symmetry=`` argument to a validated group tuple.

    ``None`` → no reduction; ``"auto"`` → :func:`detect_symmetries`;
    a single group or an iterable of groups → validated as-is.
    """
    if symmetry is None:
        return ()
    if isinstance(symmetry, str):
        if symmetry != "auto":
            raise ValueError(
                f"unknown symmetry spec {symmetry!r}; expected None, 'auto', "
                "a SymmetryGroup or an iterable of SymmetryGroups"
            )
        return detect_symmetries(compiled)
    if isinstance(symmetry, SymmetryGroup):
        groups: Tuple[SymmetryGroup, ...] = (symmetry,)
    else:
        groups = tuple(symmetry)
    seen_p: set = set()
    seen_t: set = set()
    for group in groups:
        validate_group(compiled, group)
        flat_p = {p for block in group.place_blocks for p in block}
        flat_t = {t for block in group.transition_blocks for t in block}
        if flat_p & seen_p or flat_t & seen_t:
            raise ValueError("symmetry groups must be node-disjoint")
        seen_p |= flat_p
        seen_t |= flat_t
    return groups

"""Frontier-batched state-space exploration: the ``engine="compiled"`` core.

Every compiled state-space query of :mod:`repro.petrinet.reachability`
(reachability graphs, reachability tests, deadlocks, liveness and the
bounded prefix of coverability) runs here.  The search loop does not
pop one marking at a time off a queue: each BFS level (the *frontier*)
is one ``(N, P)`` int64 matrix, and every step of the exploration is a
whole-frontier numpy operation —

* enabledness of all transitions over the whole frontier in one pass
  (per-transition CSR column checks, cheaper than the dense
  ``(N, T, P)`` broadcast for the sparse presets of real nets);
* all successors of the whole frontier materialized in one vectorized
  ``frontier[src] + incidence[transition]`` step over the enabled
  ``(src, transition)`` pairs (row-major, i.e. exactly the visit order
  of a one-marking-at-a-time BFS);
* deduplication with :func:`numpy.unique` over successor *hashes* plus
  a sorted visited ``hash -> index`` table queried with
  :func:`numpy.searchsorted` — no Python dictionary work on the hot
  path.

Hashes are 64-bit linear mixes ``marking @ mix`` with fixed random odd
weights.  Linearity is what makes the batch cheap: the hash of a
successor is ``hash(frontier_row) + hash(incidence_row)`` (mod 2^64),
so successor hashes are computed *without materializing the successor
matrix* — only genuinely new markings are ever gathered into rows.
Every equality the exploration relies on — a within-level merge of two
successors, or a cross-level match against the visited table — is
confirmed by a second, independent 64-bit hash; a disagreement between
the two hashes transparently restarts the exploration on
:func:`_explore_exact`, a tuple-keyed dictionary explorer that is
slower but collision-free.  A *silently* wrong merge therefore needs
two distinct markings colliding in both hashes at once (probability
~2^-128 per pair, far below hardware error rates); any single-hash
collision is detected and routed to the exact explorer.

The exploration picks between the two explorers from what it observes
— a hash disagreement, or a long run of narrow levels — never from an
option.  Both visit markings in exactly the order of the legacy
engine's BFS — same node numbering, same edge list, same
``max_markings`` cutoff point — which is what makes the differential
suites (:mod:`tests.test_frontier_differential`,
:mod:`tests.test_properties_differential`) bit-for-bit equality checks
rather than graph-isomorphism tests.

The QSS cycle search is not offered here: its per-reduction state
spaces are small and deep, where the memoized sequential DFS
(:func:`repro.petrinet.simulation.search_firing_order`) wins.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .compiled import CompiledNet, MarkingTuple
from .symmetry import SymmetryGroup, canonicalize

#: Seed of the fixed hash mix; one constant so every process (pool
#: workers included) explores identically.
_MIX_SEED = 0x9E3779B97F4A7C15

#: Narrow-frontier bailout: when this many *consecutive* BFS levels
#: carry fewer than :data:`_NARROW_WIDTH` markings each, the per-level
#: numpy dispatch overhead dominates any vectorization win (a
#: single-token chain degenerates to one marking per level, i.e. one
#: whole batched round per node), so the exploration restarts on the
#: scalar exact explorer, which handles deep-narrow state spaces at
#: one dictionary lookup per successor.
_NARROW_STREAK = 64
_NARROW_WIDTH = 16


class _HashDisagreement(Exception):
    """Internal: a 64-bit hash check failed; rerun the exact explorer."""


class _NarrowFrontier(Exception):
    """Internal: levels stayed tiny; batching is pure overhead here."""


@dataclass
class FrontierExploration:
    """Raw result of a frontier exploration, still in compiled ids.

    Attributes
    ----------
    matrix:
        ``(N, P)`` int64 matrix of every discovered marking, row ``i``
        being the marking with BFS index ``i`` (row 0 is the start).
    edge_src / edge_transition / edge_dst:
        Parallel ``(E,)`` int64 arrays: edge ``j`` fires transition id
        ``edge_transition[j]`` from marking ``edge_src[j]`` to marking
        ``edge_dst[j]``, listed in the BFS visit order of the compiled
        engine.  Empty when the exploration ran with
        ``collect_edges=False``.
    complete:
        False when the ``max_markings`` cap truncated the exploration
        (or a ``stop_on_target`` search stopped at the target).
    target_index:
        BFS index of the target marking when one was given and found.
    spill:
        :class:`~repro.petrinet.outofcore.SpillStats` when the
        exploration ran under a memory budget (the matrix/edge arrays
        are then read-only memory maps); ``None`` for in-RAM runs.
    """

    matrix: np.ndarray
    edge_src: np.ndarray
    edge_transition: np.ndarray
    edge_dst: np.ndarray
    complete: bool
    target_index: Optional[int] = None
    spill: Optional[object] = None

    @property
    def node_count(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def edge_count(self) -> int:
        return int(self.edge_src.shape[0])


# ----------------------------------------------------------------------
# Per-net tables (cached per CompiledNet instance)
# ----------------------------------------------------------------------
class _FrontierTables:
    """Net-constant arrays shared by every exploration of one net.

    * ``enabled(frontier)`` — the batched enabledness function: one
      boolean ``(N, T)`` matrix from per-transition CSR column checks.
    * ``mix1``/``mix2`` — the two independent hash weight vectors.
    * ``inc_h1``/``inc_h2`` — per-transition hash deltas
      ``incidence @ mix`` (the linearity shortcut).
    """

    __slots__ = ("enabled", "mix1", "mix2", "inc_h1", "inc_h2")

    def __init__(self, compiled: CompiledNet) -> None:
        n_transitions = len(compiled.pre_lists)
        # transitions with exactly one preset place are checked for the
        # whole frontier in ONE comparison (they dominate real nets);
        # wider presets fall back to a per-transition column check
        single_t: List[int] = []
        single_p: List[int] = []
        single_w: List[int] = []
        multi: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for t, pairs in enumerate(compiled.pre_lists):
            if len(pairs) == 1:
                single_t.append(t)
                single_p.append(pairs[0][0])
                single_w.append(pairs[0][1])
            elif pairs:
                multi.append(
                    (
                        t,
                        np.array([p for p, _ in pairs], dtype=np.int64),
                        np.array([w for _, w in pairs], dtype=np.int64),
                    )
                )
        single_t_arr = np.array(single_t, dtype=np.int64)
        single_p_arr = np.array(single_p, dtype=np.int64)
        single_w_arr = np.array(single_w, dtype=np.int64)

        def enabled(frontier: np.ndarray) -> np.ndarray:
            out = np.ones((frontier.shape[0], n_transitions), dtype=bool)
            if single_t_arr.size:
                out[:, single_t_arr] = frontier[:, single_p_arr] >= single_w_arr
            for t, ids, weights in multi:
                out[:, t] = (frontier[:, ids] >= weights).all(axis=1)
            return out

        self.enabled: Callable[[np.ndarray], np.ndarray] = enabled
        rng = np.random.Generator(np.random.PCG64(_MIX_SEED))
        n_places = len(compiled.places)
        # odd weights: an odd multiplier is invertible mod 2^64, which
        # keeps single-place token changes from cancelling in the mix
        self.mix1 = rng.integers(
            -(2**62), 2**62, size=n_places, dtype=np.int64
        ) | np.int64(1)
        self.mix2 = rng.integers(
            -(2**62), 2**62, size=n_places, dtype=np.int64
        ) | np.int64(1)
        self.inc_h1 = compiled.incidence @ self.mix1
        self.inc_h2 = compiled.incidence @ self.mix2


_TABLES: "weakref.WeakKeyDictionary[CompiledNet, _FrontierTables]" = (
    weakref.WeakKeyDictionary()
)


def _tables_for(compiled: CompiledNet) -> _FrontierTables:
    tables = _TABLES.get(compiled)
    if tables is None:
        tables = _FrontierTables(compiled)
        _TABLES[compiled] = tables
    return tables


# ----------------------------------------------------------------------
# Reachability exploration
# ----------------------------------------------------------------------
def explore_frontier(
    compiled: CompiledNet,
    start: Optional[Sequence[int]] = None,
    max_markings: int = 100_000,
    target: Optional[Sequence[int]] = None,
    stop_on_target: bool = False,
    collect_edges: bool = True,
    memory_budget: Optional[object] = None,
    spill_dir: Optional[object] = None,
    symmetry: Optional[object] = None,
) -> FrontierExploration:
    """Breadth-first exploration with whole-level batching.

    ``start``/``target`` are compiled marking tuples (or arrays); the
    default start is the net's initial marking.  The discovered node
    numbering, edge list and ``max_markings`` cutoff are identical to
    the legacy engine's one-marking-at-a-time BFS.  With
    ``stop_on_target`` the exploration returns as soon as the target is
    discovered (used by the early-exit reachability query); with
    ``collect_edges=False`` the edge arrays stay empty (used by the
    boundedness fast path, which only needs the marking matrix).

    Any of ``memory_budget`` (bytes, or ``"256MB"``-style strings),
    ``spill_dir`` or ``symmetry`` routes the exploration through the
    out-of-core engine (:mod:`repro.petrinet.outofcore`): markings and
    edges stream to disk, the visited tables spill past the budget, and
    oversized frontiers are processed in budget-sized chunks — same
    BFS order bit for bit.  ``symmetry`` (``"auto"`` or validated
    :class:`~repro.petrinet.symmetry.SymmetryGroup` s) additionally
    canonicalizes markings, returning the quotient graph instead.
    """
    if memory_budget is not None or spill_dir is not None or symmetry is not None:
        from .outofcore import explore_budgeted

        return explore_budgeted(
            compiled,
            start=start,
            max_markings=max_markings,
            target=target,
            stop_on_target=stop_on_target,
            collect_edges=collect_edges,
            memory_budget=memory_budget,
            spill_dir=spill_dir,
            symmetry=symmetry,
        )
    try:
        return _explore_hashed(
            compiled, start, max_markings, target, stop_on_target, collect_edges
        )
    except (_HashDisagreement, _NarrowFrontier):
        return _explore_exact(
            compiled, start, max_markings, target, stop_on_target, collect_edges
        )


def _start_vector(
    compiled: CompiledNet, start: Optional[Sequence[int]]
) -> np.ndarray:
    vector = np.array(
        compiled.initial if start is None else tuple(start), dtype=np.int64
    )
    if vector.shape != (len(compiled.places),):
        raise ValueError(
            f"start marking has {vector.shape[0]} components, net has "
            f"{len(compiled.places)} places"
        )
    return vector


def _explore_hashed(
    compiled: CompiledNet,
    start: Optional[Sequence[int]],
    max_markings: int,
    target: Optional[Sequence[int]],
    stop_on_target: bool,
    collect_edges: bool,
) -> FrontierExploration:
    """The vectorized two-hash explorer (fast path)."""
    n_places = len(compiled.places)
    incidence = compiled.incidence
    tables = _tables_for(compiled)
    mix1, inc_h1 = tables.mix1, tables.inc_h1
    mix2, inc_h2 = tables.mix2, tables.inc_h2
    enabled_fn = tables.enabled

    start_vector = _start_vector(compiled, start)
    target_vector = (
        None if target is None else np.array(tuple(target), dtype=np.int64)
    )
    target_index: Optional[int] = None
    if target_vector is not None and np.array_equal(start_vector, target_vector):
        target_index = 0

    store = np.empty((1024, n_places), dtype=np.int64)
    store[0] = start_vector
    count = 1
    start_h1 = np.int64(start_vector @ mix1)
    start_h2 = np.int64(start_vector @ mix2)
    visited_h = np.array([start_h1], dtype=np.int64)
    visited_h2 = np.array([start_h2], dtype=np.int64)
    visited_idx = np.zeros(1, dtype=np.int64)

    frontier = start_vector[np.newaxis, :]
    # hashes of the frontier rows, carried level to level (a new row's
    # hashes are the successor hashes that discovered it)
    frontier_h1 = np.array([start_h1], dtype=np.int64)
    frontier_h2 = np.array([start_h2], dtype=np.int64)
    base = 0  # BFS index of the first frontier row (rows are contiguous)
    edge_src: List[np.ndarray] = []
    edge_t: List[np.ndarray] = []
    edge_dst: List[np.ndarray] = []
    complete = True
    narrow_streak = 0

    while frontier.shape[0] and not (stop_on_target and target_index is not None):
        if frontier.shape[0] < _NARROW_WIDTH:
            narrow_streak += 1
            if narrow_streak >= _NARROW_STREAK:
                # deep-narrow state space: per-level batching overhead is
                # O(levels) = O(markings) here and the visited-table
                # merges would turn quadratic — the scalar explorer is
                # the right engine (the short prefix redone is tiny)
                raise _NarrowFrontier
        else:
            narrow_streak = 0
        src_local, trans = np.nonzero(enabled_fn(frontier))
        if src_local.size == 0:
            break
        # successor hashes via linearity — no successor matrix yet
        h1 = frontier_h1[src_local] + inc_h1[trans]
        h2 = frontier_h2[src_local] + inc_h2[trans]
        unique_h, first, inverse = np.unique(
            h1, return_index=True, return_inverse=True
        )
        # within-level merge check: the second hash must agree wherever
        # the first merged two successor rows
        if not np.array_equal(h2, h2[first[inverse]]):
            raise _HashDisagreement
        # membership against everything discovered so far; a first-hash
        # match must be confirmed by the second hash or the exploration
        # falls back to the exact engine
        pos = np.minimum(np.searchsorted(visited_h, unique_h), visited_h.size - 1)
        found = visited_h[pos] == unique_h
        unique_index = np.empty(unique_h.size, dtype=np.int64)
        found_pos = np.flatnonzero(found)
        if found_pos.size:
            if not np.array_equal(h2[first[found_pos]], visited_h2[pos[found_pos]]):
                raise _HashDisagreement
            unique_index[found_pos] = visited_idx[pos[found_pos]]
        new_pos = np.flatnonzero(~found)
        new_first = first[new_pos]
        # discovery order of the new markings = order of first occurrence
        # in the row-major (src, transition) pair enumeration
        discovery = np.argsort(new_first, kind="stable")
        n_new = new_pos.size
        if count + n_new > max_markings:
            complete = False
            allowed = max(0, max_markings - count)
            cutoff = int(new_first[discovery[allowed]])
        else:
            allowed = n_new
            cutoff = -1
        kept = discovery[:allowed]
        new_ids = np.full(n_new, -1, dtype=np.int64)
        new_ids[kept] = count + np.arange(allowed, dtype=np.int64)
        unique_index[new_pos] = new_ids
        kept_first = new_first[kept]
        new_rows = frontier[src_local[kept_first]] + incidence[trans[kept_first]]
        while count + allowed > store.shape[0]:
            store = np.concatenate([store, np.empty_like(store)])
        store[count : count + allowed] = new_rows
        if target_vector is not None and target_index is None and allowed:
            hits = np.flatnonzero((new_rows == target_vector).all(axis=1))
            if hits.size:
                target_index = count + int(hits[0])
        # merge the kept new hashes into the sorted visited tables
        kept_mask = new_ids >= 0
        kept_unique = new_pos[kept_mask]
        new_h = unique_h[kept_unique]
        insert_at = np.searchsorted(visited_h, new_h)
        visited_h = np.insert(visited_h, insert_at, new_h)
        visited_h2 = np.insert(visited_h2, insert_at, h2[first[kept_unique]])
        visited_idx = np.insert(visited_idx, insert_at, new_ids[kept_mask])
        if collect_edges:
            dst = unique_index[inverse]
            src = src_local + base
            if cutoff >= 0:
                edge_src.append(src[:cutoff])
                edge_t.append(trans[:cutoff])
                edge_dst.append(dst[:cutoff])
            else:
                edge_src.append(src)
                edge_t.append(trans)
                edge_dst.append(dst)
        count += allowed
        if cutoff >= 0:
            break
        base = count - allowed
        frontier = new_rows
        frontier_h1 = h1[kept_first]
        frontier_h2 = h2[kept_first]

    if stop_on_target and target_index is not None:
        # stopped at the target: the graph is (potentially) a prefix
        complete = False

    def concatenated(chunks: List[np.ndarray]) -> np.ndarray:
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    if count < store.shape[0]:
        # release the doubling slack: the matrix may be held for the
        # lifetime of a lazily-viewed graph, the buffer must not be
        store = store[:count].copy()
    return FrontierExploration(
        matrix=store,
        edge_src=concatenated(edge_src),
        edge_transition=concatenated(edge_t),
        edge_dst=concatenated(edge_dst),
        complete=complete,
        target_index=target_index,
    )


def _explore_exact(
    compiled: CompiledNet,
    start: Optional[Sequence[int]],
    max_markings: int,
    target: Optional[Sequence[int]],
    stop_on_target: bool,
    collect_edges: bool,
    groups: Sequence[SymmetryGroup] = (),
) -> FrontierExploration:
    """Collision-free scalar fallback on the compiled successor function.

    A one-marking-at-a-time BFS (:attr:`CompiledNet.expander` plus a
    tuple-keyed visited dict) in the hashed explorers' visit order,
    assembling the integer-array :class:`FrontierExploration` form at
    the end.  It serves two roles: the exact court of appeal when a
    hashed explorer, in RAM or out of core, detects a 64-bit collision,
    and the right engine outright for deep-narrow state spaces, where
    its per-marking cost beats any per-level batching.  With symmetry
    ``groups`` every marking is canonicalized, so it explores the same
    quotient as :func:`repro.petrinet.outofcore.explore_budgeted`;
    without them the expander runs unwrapped.
    """
    start_tuple = tuple(
        canonicalize(_start_vector(compiled, start), groups).tolist()
    )
    target_tuple = (
        None
        if target is None
        else tuple(canonicalize(target, groups).tolist())
    )
    target_index: Optional[int] = None
    if target_tuple is not None and start_tuple == target_tuple:
        target_index = 0

    markings: List[MarkingTuple] = [start_tuple]
    index: dict = {start_tuple: 0}
    edge_src: List[int] = []
    edge_t: List[int] = []
    edge_dst: List[int] = []
    complete = True
    expand = compiled.expander
    if groups:
        plain = expand

        def expand(marking: MarkingTuple) -> List[Tuple[int, MarkingTuple]]:
            return [
                (transition, tuple(canonicalize(successor, groups).tolist()))
                for transition, successor in plain(marking)
            ]

    queue = deque([0])
    count = 1
    index_get = index.get

    while queue and not (stop_on_target and target_index is not None):
        current_index = queue.popleft()
        current = markings[current_index]
        for transition, successor in expand(current):
            successor_index = index_get(successor)
            if successor_index is None:
                if count >= max_markings:
                    complete = False
                    queue.clear()
                    break
                successor_index = count
                index[successor] = count
                markings.append(successor)
                queue.append(count)
                count += 1
                if target_tuple is not None and successor == target_tuple:
                    target_index = successor_index
            if collect_edges:
                edge_src.append(current_index)
                edge_t.append(transition)
                edge_dst.append(successor_index)
        if not complete:
            break

    if stop_on_target and target_index is not None:
        # stopped at the target: the graph is (potentially) a prefix
        complete = False

    return FrontierExploration(
        matrix=np.array(markings, dtype=np.int64).reshape(
            count, len(compiled.places)
        ),
        edge_src=np.array(edge_src, dtype=np.int64),
        edge_transition=np.array(edge_t, dtype=np.int64),
        edge_dst=np.array(edge_dst, dtype=np.int64),
        complete=complete,
        target_index=target_index,
    )

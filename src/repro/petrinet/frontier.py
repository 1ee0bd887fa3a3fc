"""Frontier-batched state-space exploration: the ``engine="compiled"`` core.

Every compiled state-space query of :mod:`repro.petrinet.reachability`
(reachability graphs, reachability tests, deadlocks, liveness and the
bounded prefix of coverability) runs here, through one level loop.  The
search does not pop one marking at a time off a queue: each BFS level
(the *frontier*) is one ``(N, P)`` int64 matrix, and every step of the
exploration is a whole-frontier numpy operation —

* enabledness of all transitions over the whole frontier in one pass
  (:meth:`CompiledNet.enabled_mask`, which the fleet kernel's cascades
  share: one gather checks every preset of one width, cheaper than the
  dense ``(N, T, P)`` broadcast for the sparse presets of real nets);
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

Where the loop keeps its state follows ``memory_budget`` and
``spill_dir``, never a second loop: in RAM, each level is one chunk,
new markings go to a doubling buffer, edges are appended as arrays and
concatenated once at the end, and the visited table never spills;
under a budget or a spill directory, the storage of
:mod:`repro.petrinet.outofcore` streams them to files in a directory
of the run's own, spills the visited table past its budget share and
reads each level back in budget-sized chunks.

The exploration picks between the two explorers from what it observes
— a hash disagreement, or a long run of narrow levels in RAM — never
from an option.  Both visit markings in exactly the order of the legacy
engine's BFS — same node numbering, same edge list, same
``max_markings`` cutoff point — which is what makes the differential
suites (:mod:`tests.test_frontier_differential`,
:mod:`tests.test_outofcore_differential`,
:mod:`tests.test_properties_differential`) bit-for-bit equality checks
rather than graph-isomorphism tests.

The QSS cycle search is not offered here: on a conflict-free
T-reduction it is one greedy walk with no state space to explore
(:meth:`repro.qss.compiled_reduction.CompiledReduction.find_finite_complete_cycle`).
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from .compiled import CompiledNet, MarkingTuple
from .outofcore import (
    SpillStats,
    VisitedStore,
    _ArrayLog,
    _chunk_rows_for,
    parse_memory_budget,
)

#: Seed of the fixed hash mix; one constant so every process (pool
#: workers included) explores identically.
_MIX_SEED = 0x9E3779B97F4A7C15

#: Narrow-frontier bailout: when this many *consecutive* BFS levels
#: carry fewer than :data:`_NARROW_WIDTH` markings each, the per-level
#: numpy dispatch overhead dominates any vectorization win (a
#: single-token chain degenerates to one marking per level, i.e. one
#: whole batched round per node), so an in-RAM exploration restarts on
#: the scalar exact explorer, which handles deep-narrow state spaces at
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
        exploration stored its state on disk (``memory_budget`` or
        ``spill_dir``; the matrix/edge arrays are then read-only memory
        maps); ``None`` for in-RAM runs.
    """

    matrix: np.ndarray
    edge_src: np.ndarray
    edge_transition: np.ndarray
    edge_dst: np.ndarray
    complete: bool
    target_index: Optional[int] = None
    spill: Optional[SpillStats] = None

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
    """Net-constant hash arrays shared by every exploration of one net.

    * ``mix1``/``mix2`` — the two independent hash weight vectors.
    * ``inc_h1``/``inc_h2`` — per-transition hash deltas
      ``incidence @ mix`` (the linearity shortcut).
    """

    __slots__ = ("mix1", "mix2", "inc_h1", "inc_h2")

    def __init__(self, compiled: CompiledNet) -> None:
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


class _RamRows:
    """In-RAM marking log: rows copied into one buffer grown by doubling.

    Keeping each level's rows as its own array would save the copies,
    but those long-lived arrays fragment the heap between the visited
    table's reallocations: in a fresh process that multiplied page
    faults 3-6x and cost 15-35% at 10^5-10^6 markings (2-core VM,
    Python 3.11).
    """

    def __init__(self, columns: int) -> None:
        self.rows = 0
        self._buffer = np.empty((1024, columns), dtype=np.int64)

    def append(self, array: np.ndarray) -> None:
        end = self.rows + array.shape[0]
        if end > self._buffer.shape[0]:
            grown = np.empty(
                (max(end, 2 * self._buffer.shape[0]), self._buffer.shape[1]),
                dtype=np.int64,
            )
            grown[: self.rows] = self._buffer[: self.rows]
            self._buffer = grown
        self._buffer[self.rows : end] = array
        self.rows = end

    def read(self, start: int, stop: int) -> np.ndarray:
        return self._buffer[start:stop]

    def finalize(self) -> np.ndarray:
        # a trimmed copy: the matrix may outlive the run, the doubling
        # slack must not
        matrix = self._buffer[: self.rows].copy()
        del self._buffer
        return matrix

    def close(self) -> None:
        pass


class _ChunkList:
    """In-RAM edge log: appended arrays, concatenated once by finalize."""

    def __init__(self) -> None:
        self._chunks: List[np.ndarray] = []

    def append(self, array: np.ndarray) -> None:
        self._chunks.append(array)

    def finalize(self) -> np.ndarray:
        chunks, self._chunks = self._chunks, []
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)

    def close(self) -> None:
        pass


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
    memory_budget: Union[None, int, str] = None,
    spill_dir: Union[None, str, Path] = None,
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

    ``memory_budget`` (bytes, or ``"256MB"``-style strings) or
    ``spill_dir`` moves the exploration's storage to disk
    (:mod:`repro.petrinet.outofcore`): markings and edges stream to a
    fresh directory of the run's own — a subdirectory of ``spill_dir``,
    kept after the run and named in the returned ``spill`` stats, or a
    temporary one removed with the run — the visited tables spill past
    the budget, and oversized frontiers are processed in budget-sized
    chunks; same BFS order bit for bit.
    """
    budget = parse_memory_budget(memory_budget)
    try:
        return _explore_hashed(
            compiled, start, max_markings, target, stop_on_target,
            collect_edges, budget, spill_dir,
        )
    except (_HashDisagreement, _NarrowFrontier):
        # correctness outranks the budget: the exact explorer runs in RAM
        return _explore_exact(
            compiled, start, max_markings, target, stop_on_target,
            collect_edges,
        )


def _marking_vector(
    compiled: CompiledNet, marking: Optional[Sequence[int]], argument: str
) -> np.ndarray:
    """``marking`` (``None``: the initial marking) as an int64 vector.

    A marking without exactly one component per place is refused with
    a ``ValueError`` naming ``argument``, so neither explorer broadcasts
    it across the places.
    """
    vector = np.array(
        compiled.initial if marking is None else tuple(marking), dtype=np.int64
    )
    if vector.shape != (len(compiled.places),):
        raise ValueError(
            f"{argument} marking has {len(vector)} components, net has "
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
    budget: Optional[int],
    spill_dir: Union[None, str, Path],
) -> FrontierExploration:
    """The vectorized two-hash level loop, in RAM or spilling to disk."""
    n_places = len(compiled.places)
    incidence = compiled.incidence
    tables = _tables_for(compiled)
    mix1, inc_h1 = tables.mix1, tables.inc_h1
    mix2, inc_h2 = tables.mix2, tables.inc_h2
    enabled_fn = compiled.enabled_mask

    start_vector = _marking_vector(compiled, start, "start")
    target_vector = (
        None if target is None else _marking_vector(compiled, target, "target")
    )
    target_index: Optional[int] = None
    if target_vector is not None and np.array_equal(start_vector, target_vector):
        target_index = 0

    directory: Optional[Path] = None
    if spill_dir is not None:
        # a fresh subdirectory per run: explorations sharing a spill_dir
        # must never rewrite each other's memory-mapped logs
        Path(spill_dir).mkdir(parents=True, exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix="explore-", dir=spill_dir))
    elif budget is not None:
        directory = Path(tempfile.mkdtemp(prefix="repro-qss-ooc-"))
    logs: List = []
    try:
        if directory is None:
            logs = [_RamRows(n_places), _ChunkList(), _ChunkList(), _ChunkList()]
        else:
            for name, columns in (
                ("markings", n_places),
                ("edge-src", None),
                ("edge-transition", None),
                ("edge-dst", None),
            ):
                logs.append(_ArrayLog(directory / f"{name}.bin", columns))
        markings, edge_src, edge_t, edge_dst = logs
        # a quarter of the budget holds the visited RAM segment (three
        # int64 per entry); without a budget it never spills
        visited = VisitedStore(
            directory, 2**62 if budget is None else budget // 4 // 24
        )
        chunk_rows = _chunk_rows_for(budget, n_places, len(compiled.transitions))

        markings.append(start_vector[np.newaxis, :])
        visited.insert(
            np.array([start_vector @ mix1], dtype=np.int64),
            np.array([start_vector @ mix2], dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )
        count = 1
        level_start, level_end = 0, 1
        complete = True
        levels = chunks = narrow_streak = 0
        # a found target stops the search at a level boundary only (the
        # level it appears in is processed in full, in every chunking)
        while (
            complete
            and level_start < level_end
            and not (stop_on_target and target_index is not None)
        ):
            levels += 1
            if directory is None:
                # deep-narrow state space: per-level batching overhead is
                # O(levels) = O(markings) here and the visited-table merges
                # would turn quadratic, so the scalar explorer takes over
                # (the short prefix redone is tiny); in RAM only, since
                # the exact explorer does not honour a budget
                narrow = level_end - level_start < _NARROW_WIDTH
                narrow_streak = narrow_streak + 1 if narrow else 0
                if narrow_streak >= _NARROW_STREAK:
                    raise _NarrowFrontier
            for chunk_at in range(level_start, level_end, chunk_rows):
                # a spilled level is read back from the marking log one
                # chunk at a time: the only frontier RAM it uses
                chunk = markings.read(chunk_at, min(chunk_at + chunk_rows, level_end))
                chunks += 1
                src_local, trans = np.nonzero(enabled_fn(chunk))
                if src_local.size == 0:
                    continue
                # linearity: no successor matrix yet
                h1 = (chunk @ mix1)[src_local] + inc_h1[trans]
                h2 = (chunk @ mix2)[src_local] + inc_h2[trans]
                unique_h, first, inverse = np.unique(
                    h1, return_index=True, return_inverse=True
                )
                # within-level merge check: the second hash must agree
                # wherever the first merged two successor rows
                if not np.array_equal(h2, h2[first[inverse]]):
                    raise _HashDisagreement
                # membership against everything discovered so far; a
                # first-hash match must be confirmed by the second hash
                found, unique_index, found_h2 = visited.lookup(unique_h)
                found_pos = np.flatnonzero(found)
                if not np.array_equal(h2[first[found_pos]], found_h2[found_pos]):
                    raise _HashDisagreement
                new_pos = np.flatnonzero(~found)
                new_first = first[new_pos]
                # discovery order of the new markings = order of first
                # occurrence in the row-major (src, transition) enumeration
                discovery = np.argsort(new_first, kind="stable")
                allowed = min(new_pos.size, max(0, max_markings - count))
                kept = discovery[:allowed]
                new_ids = np.full(new_pos.size, -1, dtype=np.int64)
                new_ids[kept] = count + np.arange(allowed, dtype=np.int64)
                unique_index[new_pos] = new_ids
                kept_first = new_first[kept]
                new_rows = chunk[src_local[kept_first]] + incidence[trans[kept_first]]
                markings.append(new_rows)
                if target_vector is not None and target_index is None and allowed:
                    hits = np.flatnonzero((new_rows == target_vector).all(axis=1))
                    if hits.size:
                        target_index = count + int(hits[0])
                kept_unique = new_pos[new_ids >= 0]  # hash order, as insert wants
                visited.insert(
                    unique_h[kept_unique],
                    h2[first[kept_unique]],
                    unique_index[kept_unique],
                )
                # the max_markings cap cuts the level at the first pair
                # that discovers a dropped marking; the edges stop there
                cut = allowed < new_pos.size
                if collect_edges:
                    stop_at = (
                        int(new_first[discovery[allowed]]) if cut else src_local.size
                    )
                    edge_src.append(src_local[:stop_at] + chunk_at)
                    edge_t.append(trans[:stop_at])
                    edge_dst.append(unique_index[inverse[:stop_at]])
                count += allowed
                if cut:
                    complete = False
                    break
            level_start, level_end = level_end, count

        if stop_on_target and target_index is not None:
            # stopped at the target: the graph is (potentially) a prefix
            complete = False
        spill = None
        if directory is not None:
            spill = SpillStats(
                budget_bytes=budget,
                spill_dir=str(directory),
                shard_count=visited.shard_count,
                shard_bytes=visited.shard_bytes,
                log_bytes=sum(log.nbytes for log in logs),
                chunk_count=chunks,
                level_count=levels,
            )
        # edges first: the marking buffer's trimmed copy comes last, once
        # the edge chunks are gone, which keeps the peak lowest
        edges = [log.finalize() for log in (edge_src, edge_t, edge_dst)]
        return FrontierExploration(
            markings.finalize(), *edges, complete, target_index, spill
        )
    finally:
        for log in logs:
            log.close()
        if directory is not None and spill_dir is None:
            # POSIX: unlinked files stay readable through their live
            # maps, so the temporary directory goes with the run
            shutil.rmtree(directory, ignore_errors=True)


def _explore_exact(
    compiled: CompiledNet,
    start: Optional[Sequence[int]],
    max_markings: int,
    target: Optional[Sequence[int]],
    stop_on_target: bool,
    collect_edges: bool,
) -> FrontierExploration:
    """Collision-free scalar fallback on the compiled successor function.

    A one-marking-at-a-time BFS (:attr:`CompiledNet.expander` plus a
    tuple-keyed visited dict) in the hashed loop's visit order,
    assembling the integer-array :class:`FrontierExploration` form at
    the end.  It serves two roles: the exact court of appeal when the
    hashed loop, in RAM or spilling, detects a 64-bit collision, and
    the right engine outright for deep-narrow state spaces, where its
    per-marking cost beats any per-level batching.
    """
    start_tuple = tuple(_marking_vector(compiled, start, "start").tolist())
    target_tuple = (
        None
        if target is None
        else tuple(_marking_vector(compiled, target, "target").tolist())
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
    count = 1
    index_get = index.get
    # BFS indices are discovery order, so the queue is the index range
    # itself; ``level_end`` is the first index of the next BFS level
    current_index = level_end = 0

    while complete and current_index < count:
        if current_index == level_end:
            # a found target stops the search at a level boundary only,
            # as in the hashed loop: its level is expanded in full
            if stop_on_target and target_index is not None:
                break
            level_end = count
        for transition, successor in expand(markings[current_index]):
            successor_index = index_get(successor)
            if successor_index is None:
                if count >= max_markings:
                    complete = False
                    break
                successor_index = count
                index[successor] = count
                markings.append(successor)
                count += 1
                if target_tuple is not None and successor == target_tuple:
                    target_index = successor_index
            if collect_edges:
                edge_src.append(current_index)
                edge_t.append(transition)
                edge_dst.append(successor_index)
        current_index += 1

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

"""Memory-budgeted, spill-to-disk frontier exploration.

The compiled engine's state-space exploration
(:mod:`repro.petrinet.frontier`) batches BFS levels into numpy
matrices, which is fast — and RAM-bound: near 10^7 markings the
marking matrix, the sorted visited tables and the per-level successor
arrays together outgrow small machines.  This module re-runs the
*same* BFS under an explicit ``memory_budget`` (bytes), following the
external-memory search discipline of explicit-state model checkers
(Murφ/SPIN-style disk-based search):

* **Marking and edge logs** stream to flat little-endian int64 files
  in ``spill_dir`` as they are discovered (row-major ``(N, P)`` for
  markings, one file per edge column).  The BFS frontier is never a
  resident matrix — each level is *read back in chunks* from the
  marking log, so a level wider than the budget costs chunk-sized RAM.
* **VisitedStore** keeps the sorted (hash1, hash2, BFS-index) dedup
  tables in RAM only up to a budget share; beyond it the current
  sorted segment is spilled as an immutable shard file and the RAM
  segment restarts empty.  Membership of a level's successor hashes is
  a k-way :func:`numpy.searchsorted` — one binary search per memory-
  mapped shard plus one against the RAM segment, touching O(log n)
  pages per shard and never materializing a merged table.
* **Chunked frontiers**: successor generation, hashing, deduplication
  and edge recording all happen per chunk, with the chunk size derived
  from the budget — no single level allocates beyond it.
* Optionally, a **symmetry-reduction pass**
  (:mod:`repro.petrinet.symmetry`) canonicalizes every successor row
  before hashing/storage, so families with interchangeable instances
  (fork/join branches, replicated choices) shrink the *explored* space
  before the *stored* space.

The unreduced budgeted exploration visits markings in exactly the
in-RAM engine's BFS order — same node numbering, same edge list, same
``max_markings`` cutoff — because chunking only splits the per-level
pair enumeration; cross-chunk duplicates are caught by the visited
store, and first-occurrence discovery order is preserved.  The
differential suite (:mod:`tests.test_outofcore_differential`) pins
this bit-for-bit.  With ``symmetry`` groups the result is a quotient
graph (smaller node count; deadlock/boundedness verdicts preserved,
per-transition liveness and bit-identity deliberately not).

Caveats, by design:

* hash-collision fallback: like the in-RAM explorer, any 64-bit hash
  disagreement (probability ~2^-128 per pair) restarts on the exact
  dictionary explorer (canonicalizing under ``symmetry``), which does
  not honor the budget — correctness outranks the budget in that
  astronomically unlikely case;
* the budget bounds the *exploration working set* (frontier chunks,
  visited tables); returned matrices are read-only memory maps over
  the spill files, so downstream consumers page in only what they
  touch.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .compiled import CompiledNet
from .symmetry import SymmetrySpec, canonicalize, resolve_symmetry

__all__ = [
    "SpillStats",
    "VisitedStore",
    "explore_budgeted",
    "parse_memory_budget",
]

_ITEM = 8  # everything spilled is little-endian int64

#: Floors keeping degenerate budgets functional: the visited RAM
#: segment never shrinks below this many entries, a frontier chunk
#: never below this many rows.  The segment floor is deliberately tiny
#: so the differential suite can force spilling on small nets.
_MIN_SEGMENT_ENTRIES = 64
_MIN_CHUNK_ROWS = 64

_UNIT_BYTES = {
    "": 1,
    "b": 1,
    "k": 2**10,
    "kb": 2**10,
    "kib": 2**10,
    "m": 2**20,
    "mb": 2**20,
    "mib": 2**20,
    "g": 2**30,
    "gb": 2**30,
    "gib": 2**30,
}

_BUDGET_RE = re.compile(r"^\s*([0-9][0-9_]*\.?[0-9]*)\s*([a-zA-Z]*)\s*$")


def parse_memory_budget(value: Union[None, int, str]) -> Optional[int]:
    """Normalize a memory budget to bytes.

    Accepts ``None`` (no budget), a positive int (bytes) or a string
    with a binary-unit suffix: ``"64MB"``, ``"1.5GiB"``, ``"4096"``,
    ``"512k"`` (K/M/G and their *B/iB forms all mean 2^10/2^20/2^30).
    """
    if value is None:
        return None
    if isinstance(value, str):
        match = _BUDGET_RE.match(value)
        if not match or match.group(2).lower() not in _UNIT_BYTES:
            raise ValueError(
                f"unparseable memory budget {value!r}; expected e.g. "
                "'268435456', '256MB' or '4GiB'"
            )
        number = float(match.group(1).replace("_", ""))
        result = int(number * _UNIT_BYTES[match.group(2).lower()])
    else:
        result = int(value)
    if result <= 0:
        raise ValueError(f"memory budget must be positive, got {value!r}")
    return result


@dataclass
class SpillStats:
    """What one budgeted exploration spilled and how it was chunked."""

    budget_bytes: Optional[int]
    spill_dir: str
    #: immutable sorted visited shards written (0 = everything fit in RAM)
    shard_count: int
    #: bytes of visited shards on disk
    shard_bytes: int
    #: bytes of the streamed marking/edge logs on disk
    log_bytes: int
    #: frontier chunks processed (>= level count; > it when chunking split a level)
    chunk_count: int
    #: BFS levels processed
    level_count: int
    #: True when a symmetry reduction canonicalized the exploration
    canonical: bool


class _ArrayLog:
    """Append-only flat int64 array file with memory-mapped read-back.

    ``columns == 0`` stores a 1-D array, otherwise row-major ``(N,
    columns)``.  Rows stream out through the OS page cache
    (``file.write`` of contiguous buffers); :meth:`view` hands back a
    read-only ``np.memmap`` window, so the exploration can re-read a
    finished BFS level chunk by chunk without the log ever being
    resident in RAM.
    """

    def __init__(self, path: Path, columns: int = 0) -> None:
        self.path = path
        self.columns = columns
        self.rows = 0
        self._file = open(path, "wb")

    @property
    def row_bytes(self) -> int:
        return _ITEM * (self.columns or 1)

    def append(self, array: np.ndarray) -> None:
        if array.size == 0:
            return
        array = np.ascontiguousarray(array, dtype=np.int64)
        self._file.write(array)
        self.rows += array.shape[0] if array.ndim > 1 else array.size

    def view(self, start: int, stop: int) -> np.ndarray:
        """Read-only memmap of rows ``[start, stop)`` (flush first)."""
        self._file.flush()
        count = stop - start
        if count <= 0:
            shape: Tuple[int, ...] = (
                (0, self.columns) if self.columns else (0,)
            )
            return np.empty(shape, dtype=np.int64)
        shape = (count, self.columns) if self.columns else (count,)
        return np.memmap(
            self.path,
            dtype=np.int64,
            mode="r",
            offset=start * self.row_bytes,
            shape=shape,
        )

    def finalize(self) -> np.ndarray:
        """Close the writer and return the whole log as a read-only map."""
        full = self.view(0, self.rows)
        self._file.close()
        return full

    @property
    def nbytes(self) -> int:
        return self.rows * self.row_bytes


class VisitedStore:
    """Budgeted sorted (hash1, hash2, index) membership table.

    The live segment is a sorted in-RAM triple grown by
    :func:`numpy.insert`, exactly like the in-RAM engine's visited
    tables — until it exceeds ``segment_entries``, at which point it is
    written out as one immutable sorted shard (layout ``h1 | h2 |
    idx``, each a contiguous int64 run) and the RAM segment restarts
    empty.  :meth:`lookup` answers membership with one
    :func:`numpy.searchsorted` per shard over the memory-mapped hash
    run plus one against the RAM segment — a k-way merge against the
    query batch that never materializes a combined table.  Every hash
    is inserted exactly once, so at most one segment can answer for it.
    """

    def __init__(self, spill_dir: Path, segment_entries: int) -> None:
        self.spill_dir = spill_dir
        self.segment_entries = max(_MIN_SEGMENT_ENTRIES, int(segment_entries))
        self._h1 = np.empty(0, dtype=np.int64)
        self._h2 = np.empty(0, dtype=np.int64)
        self._idx = np.empty(0, dtype=np.int64)
        self._shards: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._shard_paths: List[Path] = []

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shard_bytes(self) -> int:
        return sum(3 * _ITEM * shard[0].size for shard in self._shards)

    def lookup(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Membership of sorted unique ``queries`` across all segments.

        Returns ``(found, index, h2)``: for each query hash, whether it
        is stored, the BFS index it maps to and the stored second hash
        (callers confirm it against their own — a first-hash match with
        second-hash disagreement must fall back to the exact engine).
        """
        found = np.zeros(queries.size, dtype=bool)
        index = np.empty(queries.size, dtype=np.int64)
        h2_out = np.empty(queries.size, dtype=np.int64)
        for shard_h1, shard_h2, shard_idx in self._segments():
            if shard_h1.size == 0:
                continue
            pos = np.minimum(
                np.searchsorted(shard_h1, queries), shard_h1.size - 1
            )
            hit = (shard_h1[pos] == queries) & ~found
            if hit.any():
                found[hit] = True
                index[hit] = shard_idx[pos[hit]]
                h2_out[hit] = shard_h2[pos[hit]]
        return found, index, h2_out

    def insert(
        self, h1: np.ndarray, h2: np.ndarray, index: np.ndarray
    ) -> None:
        """Insert sorted new hashes, spilling the segment past budget."""
        if h1.size:
            at = np.searchsorted(self._h1, h1)
            self._h1 = np.insert(self._h1, at, h1)
            self._h2 = np.insert(self._h2, at, h2)
            self._idx = np.insert(self._idx, at, index)
        if self._h1.size >= self.segment_entries:
            self._spill_segment()

    def _spill_segment(self) -> None:
        path = self.spill_dir / f"visited-{len(self._shards):05d}.bin"
        size = self._h1.size
        with open(path, "wb") as handle:
            handle.write(np.ascontiguousarray(self._h1))
            handle.write(np.ascontiguousarray(self._h2))
            handle.write(np.ascontiguousarray(self._idx))
        self._shards.append(
            tuple(
                np.memmap(
                    path,
                    dtype=np.int64,
                    mode="r",
                    offset=i * size * _ITEM,
                    shape=(size,),
                )
                for i in range(3)
            )
        )
        self._shard_paths.append(path)
        self._h1 = np.empty(0, dtype=np.int64)
        self._h2 = np.empty(0, dtype=np.int64)
        self._idx = np.empty(0, dtype=np.int64)

    def _segments(self):
        yield from self._shards
        yield (self._h1, self._h2, self._idx)

    def release(self) -> None:
        """Unlink shard files (mapped pages stay valid until GC'd)."""
        for path in self._shard_paths:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self._shard_paths = []


# ----------------------------------------------------------------------
# The budgeted explorer
# ----------------------------------------------------------------------
def _chunk_rows_for(
    budget: Optional[int], n_places: int, n_transitions: int
) -> int:
    """Frontier rows per chunk so one chunk's working set fits the budget.

    Worst case per frontier row: ``T`` enabledness bools, up to ``T``
    successor pairs each carrying a handful of int64 scratch columns
    (hashes, unique/inverse/sort indices, edge triple) and up to ``T``
    new ``P``-wide rows.  Half the budget goes to this working set (the
    other half covers the visited RAM segment and the insert churn).
    """
    if budget is None:
        return 2**31
    per_row = n_transitions * (1 + 7 * _ITEM) + max(
        2 * n_places * _ITEM, n_transitions * n_places * _ITEM // 4
    )
    return max(_MIN_CHUNK_ROWS, (budget // 2) // max(1, per_row))


def explore_budgeted(
    compiled: CompiledNet,
    start: Optional[Sequence[int]] = None,
    max_markings: int = 100_000,
    target: Optional[Sequence[int]] = None,
    stop_on_target: bool = False,
    collect_edges: bool = True,
    memory_budget: Union[None, int, str] = None,
    spill_dir: Union[None, str, Path] = None,
    symmetry: SymmetrySpec = None,
):
    """Budgeted (and/or symmetry-reduced) frontier exploration.

    Same contract as :func:`repro.petrinet.frontier.explore_frontier`
    (which dispatches here whenever ``memory_budget``, ``spill_dir`` or
    ``symmetry`` is given): returns a
    :class:`~repro.petrinet.frontier.FrontierExploration` whose
    ``matrix``/edge arrays are read-only memory maps over the spill
    files, with :class:`SpillStats` attached as ``.spill``.  Without
    symmetry the result is bit-identical to the in-RAM engine; with
    symmetry it is the canonical quotient.
    """
    from .frontier import _HashDisagreement, _explore_exact

    budget = parse_memory_budget(memory_budget)
    groups = resolve_symmetry(compiled, symmetry)
    owns_dir = spill_dir is None
    if owns_dir:
        directory = Path(tempfile.mkdtemp(prefix="repro-qss-ooc-"))
    else:
        directory = Path(spill_dir)
        directory.mkdir(parents=True, exist_ok=True)
    try:
        return _explore_spilling(
            compiled,
            start,
            max_markings,
            target,
            stop_on_target,
            collect_edges,
            budget,
            directory,
            owns_dir,
            groups,
        )
    except _HashDisagreement:
        # 2^-128-likely court of appeal: correctness outranks the budget
        if owns_dir:
            shutil.rmtree(directory, ignore_errors=True)
        return _explore_exact(
            compiled, start, max_markings, target, stop_on_target,
            collect_edges, groups,
        )
    except BaseException:
        if owns_dir:
            shutil.rmtree(directory, ignore_errors=True)
        raise


def _explore_spilling(
    compiled: CompiledNet,
    start: Optional[Sequence[int]],
    max_markings: int,
    target: Optional[Sequence[int]],
    stop_on_target: bool,
    collect_edges: bool,
    budget: Optional[int],
    directory: Path,
    owns_dir: bool,
    groups: Tuple,
):
    from .frontier import (
        FrontierExploration,
        _HashDisagreement,
        _start_vector,
        _tables_for,
    )

    n_places = len(compiled.places)
    n_transitions = len(compiled.transitions)
    incidence = compiled.incidence
    tables = _tables_for(compiled)
    mix1, inc_h1 = tables.mix1, tables.inc_h1
    mix2, inc_h2 = tables.mix2, tables.inc_h2
    enabled_fn = tables.enabled

    segment_entries = (
        2**62 if budget is None else max(
            _MIN_SEGMENT_ENTRIES, budget // 4 // (3 * _ITEM)
        )
    )
    chunk_rows = _chunk_rows_for(budget, n_places, n_transitions)

    start_vector = _start_vector(compiled, start)
    if groups:
        start_vector = canonicalize(start_vector, groups)
    target_vector = (
        None
        if target is None
        else canonicalize(np.array(tuple(target), dtype=np.int64), groups)
    )
    target_index: Optional[int] = None
    if target_vector is not None and np.array_equal(start_vector, target_vector):
        target_index = 0

    markings = _ArrayLog(directory / "markings.bin", columns=n_places)
    edge_logs = (
        tuple(
            _ArrayLog(directory / f"edge-{name}.bin")
            for name in ("src", "transition", "dst")
        )
        if collect_edges
        else ()
    )
    store = VisitedStore(directory, segment_entries)

    markings.append(start_vector[np.newaxis, :])
    store.insert(
        np.asarray([start_vector @ mix1], dtype=np.int64),
        np.asarray([start_vector @ mix2], dtype=np.int64),
        np.zeros(1, dtype=np.int64),
    )
    count = 1
    level_start, level_end = 0, 1
    complete = True
    levels = 0
    chunks = 0
    done = False

    # like the in-RAM engine, a found target only stops the search at a
    # level boundary (the level it appears in is processed in full), so
    # stop_on_target runs stay bit-identical too
    while level_start < level_end and not done and not (
        stop_on_target and target_index is not None
    ):
        levels += 1
        for chunk_at in range(level_start, level_end, chunk_rows):
            chunk_stop = min(chunk_at + chunk_rows, level_end)
            # the frontier chunk is re-read from the marking log: one
            # chunk-sized copy is the only frontier RAM this level uses
            chunk = np.array(markings.view(chunk_at, chunk_stop))
            chunks += 1
            src_local, trans = np.nonzero(enabled_fn(chunk))
            if src_local.size == 0:
                continue
            if groups:
                # canonicalization needs the successor rows themselves;
                # hash the canonical forms directly
                succ = canonicalize(
                    chunk[src_local] + incidence[trans], groups
                )
                h1 = succ @ mix1
                h2 = succ @ mix2
            else:
                succ = None
                # linearity shortcut, identical arithmetic to in-RAM:
                # hash(successor) = hash(frontier row) + hash(incidence row)
                h1 = (chunk @ mix1)[src_local] + inc_h1[trans]
                h2 = (chunk @ mix2)[src_local] + inc_h2[trans]
            unique_h, first, inverse = np.unique(
                h1, return_index=True, return_inverse=True
            )
            if not np.array_equal(h2, h2[first[inverse]]):
                raise _HashDisagreement
            found, found_idx, found_h2 = store.lookup(unique_h)
            unique_index = np.empty(unique_h.size, dtype=np.int64)
            found_pos = np.flatnonzero(found)
            if found_pos.size:
                if not np.array_equal(h2[first[found_pos]], found_h2[found_pos]):
                    raise _HashDisagreement
                unique_index[found_pos] = found_idx[found_pos]
            new_pos = np.flatnonzero(~found)
            new_first = first[new_pos]
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
            if succ is not None:
                new_rows = succ[kept_first]
            else:
                new_rows = chunk[src_local[kept_first]] + incidence[trans[kept_first]]
            markings.append(new_rows)
            if target_vector is not None and target_index is None and allowed:
                hits = np.flatnonzero((new_rows == target_vector).all(axis=1))
                if hits.size:
                    target_index = count + int(hits[0])
            kept_mask = new_ids >= 0
            kept_unique = new_pos[kept_mask]
            store.insert(
                unique_h[kept_unique],
                h2[first[kept_unique]],
                new_ids[kept_mask],
            )
            if collect_edges:
                dst = unique_index[inverse]
                src = src_local + chunk_at
                stop_at = cutoff if cutoff >= 0 else src.size
                edge_logs[0].append(src[:stop_at])
                edge_logs[1].append(trans[:stop_at])
                edge_logs[2].append(dst[:stop_at])
            count += allowed
            if cutoff >= 0:
                done = True
                break
        level_start, level_end = level_end, count

    if stop_on_target and target_index is not None:
        # stopped at the target: the graph is (potentially) a prefix
        complete = False

    matrix = markings.finalize()
    if collect_edges:
        edge_src, edge_t, edge_dst = (log.finalize() for log in edge_logs)
    else:
        edge_src = edge_t = edge_dst = np.empty(0, dtype=np.int64)
    stats = SpillStats(
        budget_bytes=budget,
        spill_dir=str(directory),
        shard_count=store.shard_count,
        shard_bytes=store.shard_bytes,
        log_bytes=markings.nbytes + sum(log.nbytes for log in edge_logs),
        chunk_count=chunks,
        level_count=levels,
        canonical=bool(groups),
    )
    if owns_dir:
        # POSIX: unlinked files stay readable through their live maps,
        # so the temp dir can disappear while the memmaps are in use
        store.release()
        for log in (markings, *edge_logs):
            try:
                log.path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        try:
            directory.rmdir()
        except OSError:  # pragma: no cover - stray files: leave the dir
            pass
    return FrontierExploration(
        matrix=matrix,
        edge_src=edge_src,
        edge_transition=edge_t,
        edge_dst=edge_dst,
        complete=complete,
        target_index=target_index,
        spill=stats,
    )


"""Spill-to-disk storage for the frontier exploration's level loop.

The compiled engine's state-space exploration
(:mod:`repro.petrinet.frontier`) batches BFS levels into numpy
matrices, which is fast — and RAM-bound: near 10^7 markings the
marking matrix, the sorted visited tables and the per-level successor
arrays together outgrow small machines.  The exploration has one level
loop; ``memory_budget`` (bytes) and ``spill_dir`` only change where
that loop keeps its state, following the external-memory search
discipline of explicit-state model checkers (Murφ/SPIN-style
disk-based search).  This module is that storage:

* **Marking and edge logs** (:class:`_ArrayLog`) stream to flat int64
  files as they are discovered (row-major ``(N, P)`` for markings, one
  file per edge column).  The BFS frontier is never a resident matrix
  — each level is *read back in chunks* from the marking log, so a
  level wider than the budget costs chunk-sized RAM.
* **VisitedStore** keeps the sorted (hash1, hash2, BFS-index) dedup
  tables in RAM only up to a budget share; beyond it the current
  sorted segment is spilled as an immutable shard file and the RAM
  segment restarts empty.  Membership of a level's successor hashes is
  a k-way :func:`numpy.searchsorted` — one binary search per memory-
  mapped shard plus one against the RAM segment, touching O(log n)
  pages per shard and never materializing a merged table.  Without a
  spill directory the store never spills: it is the in-RAM loop's
  visited table too.
* **Chunk sizing** (:func:`_chunk_rows_for`): successor generation,
  hashing, deduplication and edge recording all happen per chunk, with
  the chunk size derived from the budget — no single level allocates
  beyond it.

Chunking only splits a level's pair enumeration: cross-chunk
duplicates are caught by the visited store and first-occurrence
discovery order is preserved, so a spilling exploration is
bit-identical to the in-RAM one (pinned by
:mod:`tests.test_outofcore_differential`).  The budget bounds the
*exploration working set* (frontier chunks, visited tables); returned
matrices are read-only memory maps over the spill files, so downstream
consumers page in only what they touch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "SpillStats",
    "VisitedStore",
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
    """What one spilling exploration spilled and how it was chunked."""

    budget_bytes: Optional[int]
    #: the run's own directory (a fresh subdirectory of a user
    #: ``spill_dir``, kept; or a temporary one, already removed)
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


class _ArrayLog:
    """Append-only flat int64 array file.

    ``columns=None`` stores a 1-D array, otherwise row-major ``(N,
    columns)``, zero columns included: the markings of a net without
    places take no bytes.  Rows stream out through the OS page cache
    (``file.write`` of contiguous buffers); :meth:`read` copies a
    finished BFS level back chunk by chunk, so the log is never
    resident in RAM, and :meth:`finalize` maps the whole log read-only.
    """

    def __init__(self, path: Path, columns: Optional[int] = None) -> None:
        self.path = path
        self.columns = columns
        self.rows = 0
        self._file = open(path, "wb")

    @property
    def row_items(self) -> int:
        return 1 if self.columns is None else self.columns

    @property
    def nbytes(self) -> int:
        return self.rows * self.row_items * _ITEM

    def _shape(self, rows: int) -> Tuple[int, ...]:
        return (rows,) if self.columns is None else (rows, self.columns)

    def append(self, array: np.ndarray) -> None:
        if array.shape[0]:
            self._file.write(np.ascontiguousarray(array, dtype=np.int64))
            self.rows += array.shape[0]

    def read(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` copied into RAM: one frontier chunk."""
        self._file.flush()
        return np.fromfile(
            self.path,
            dtype=np.int64,
            count=(stop - start) * self.row_items,
            offset=start * self.row_items * _ITEM,
        ).reshape(self._shape(stop - start))

    def finalize(self) -> np.ndarray:
        """Close the writer and return the whole log as a read-only map."""
        self._file.close()
        if not self.nbytes:  # an empty file cannot be mapped
            return np.empty(self._shape(self.rows), dtype=np.int64)
        return np.memmap(
            self.path, dtype=np.int64, mode="r", shape=self._shape(self.rows)
        )

    def close(self) -> None:
        self._file.close()


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
    An in-RAM exploration passes no ``spill_dir`` and a segment size it
    never reaches: its store is the one RAM segment.
    """

    def __init__(self, spill_dir: Optional[Path], segment_entries: int) -> None:
        self.spill_dir = spill_dir
        self.segment_entries = max(_MIN_SEGMENT_ENTRIES, int(segment_entries))
        self._h1 = np.empty(0, dtype=np.int64)
        self._h2 = np.empty(0, dtype=np.int64)
        self._idx = np.empty(0, dtype=np.int64)
        self._shards: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

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
            # segments are disjoint: no query matches in two of them
            hit = np.flatnonzero(shard_h1[pos] == queries)
            at = pos[hit]
            found[hit] = True
            index[hit] = shard_idx[at]
            h2_out[hit] = shard_h2[at]
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
        self._h1 = np.empty(0, dtype=np.int64)
        self._h2 = np.empty(0, dtype=np.int64)
        self._idx = np.empty(0, dtype=np.int64)

    def _segments(self):
        yield from self._shards
        yield (self._h1, self._h2, self._idx)


# ----------------------------------------------------------------------
# Chunk sizing
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



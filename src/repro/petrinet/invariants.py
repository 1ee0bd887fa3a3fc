"""T-invariant computation.

A **T-invariant** is a non-negative integer vector ``f`` indexed by
transitions such that ``f^T . D = 0`` where ``D`` is the incidence
matrix: firing every transition ``t`` exactly ``f[t]`` times (in any
fireable order) returns the net to the marking it started from.  The
existence of a positive T-invariant is the *consistency* condition of
Definition 2.1 in the paper, and T-invariants are the algebraic skeleton
of finite complete cycles.

Minimal-support semiflows are computed with the classical
Fourier–Motzkin / Farkas style elimination algorithm (Colom &
Silva 1990) on exact integer arithmetic, so no floating point round-off
can produce spurious invariants.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List

import numpy as np

from .incidence import incidence_matrices
from .net import PetriNet


def _normalize_row(row: np.ndarray) -> np.ndarray:
    """Divide an integer vector by the gcd of its entries (gcd of 0s is 1)."""
    values = [int(v) for v in row if v != 0]
    if not values:
        return row
    divisor = 0
    for value in values:
        divisor = gcd(divisor, abs(value))
    if divisor > 1:
        return row // divisor
    return row


def _minimal_semiflows(matrix: np.ndarray, max_rows: int = 200_000) -> List[np.ndarray]:
    """Return the minimal-support non-negative integer solutions of
    ``x^T . matrix = 0`` (rows of the identity tableau are candidate
    solutions ``x``).

    Parameters
    ----------
    matrix:
        Integer matrix with one row per variable (the unknown vector
        ``x`` has one entry per row of ``matrix``).
    max_rows:
        Safety cap on the intermediate tableau size; exceeded only by
        pathological nets, in which case a ``RuntimeError`` is raised
        rather than silently truncating the result.
    """
    n_vars, n_cols = matrix.shape
    # Tableau [A | I]: each row is (current combination applied to A, the
    # combination coefficients over the original variables).
    tableau = np.hstack(
        [matrix.astype(object), np.eye(n_vars, dtype=object)]
    )
    rows: List[np.ndarray] = [tableau[i].copy() for i in range(n_vars)]

    for col in range(n_cols):
        positives = [r for r in rows if r[col] > 0]
        negatives = [r for r in rows if r[col] < 0]
        zeros = [r for r in rows if r[col] == 0]
        new_rows: List[np.ndarray] = list(zeros)
        for rp in positives:
            for rn in negatives:
                coeff_p = -int(rn[col])
                coeff_n = int(rp[col])
                combined = coeff_p * rp + coeff_n * rn
                combined = _normalize_row(np.array(combined, dtype=object))
                new_rows.append(combined)
        rows = new_rows
        if len(rows) > max_rows:
            raise RuntimeError(
                "semiflow computation exceeded the safety cap "
                f"({len(rows)} intermediate rows)"
            )
        # prune rows whose support is a strict superset of another row's
        rows = _prune_non_minimal(rows, n_cols, n_vars)

    solutions = []
    for row in rows:
        support = row[n_cols:]
        if any(v != 0 for v in support):
            solutions.append(np.array([int(v) for v in support], dtype=np.int64))
    return solutions


def _prune_non_minimal(
    rows: List[np.ndarray], n_cols: int, n_vars: int
) -> List[np.ndarray]:
    """Drop rows whose coefficient support strictly contains another row's."""
    supports = []
    for row in rows:
        support = frozenset(
            i for i in range(n_vars) if row[n_cols + i] != 0
        )
        supports.append(support)
    keep: List[np.ndarray] = []
    for i, row in enumerate(rows):
        minimal = True
        for j, other_support in enumerate(supports):
            if i == j:
                continue
            if other_support < supports[i]:
                minimal = False
                break
            if other_support == supports[i] and j < i:
                # identical support: keep only the first occurrence
                minimal = False
                break
        if minimal:
            keep.append(row)
    return keep


#: Magnitude guard for the vectorized int64 elimination: combinations
#: multiply two tableau entries, so values must stay below sqrt(2^63)/2
#: for the sum of two products to be exactly representable.
_INT64_SAFE = 1 << 30


def fast_minimal_semiflows(
    matrix: np.ndarray, max_rows: int = 200_000
) -> List[np.ndarray]:
    """Vectorized int64 variant of :func:`_minimal_semiflows`.

    Runs the same Fourier–Motzkin / Farkas elimination with the same
    column order, combination order, gcd normalization and
    minimal-support pruning, but on whole int64 numpy tableaus instead
    of per-row Python object arithmetic — the form used by the
    mask-based QSS pipeline, where the input is a submatrix of a
    compiled net's incidence matrix.  Produces exactly the same
    solution set as the exact object-dtype implementation; if any
    intermediate value grows large enough that an int64 product could
    overflow (never observed on real nets, whose entries are small arc
    weights), the computation transparently falls back to the exact
    implementation.
    """
    n_vars, n_cols = matrix.shape
    if n_vars == 0:
        return []
    rows = np.hstack(
        [np.asarray(matrix, dtype=np.int64), np.eye(n_vars, dtype=np.int64)]
    )
    for col in range(n_cols):
        if rows.size and int(np.abs(rows).max()) > _INT64_SAFE:
            return _minimal_semiflows(matrix, max_rows=max_rows)
        c = rows[:, col]
        pos = np.flatnonzero(c > 0)
        neg = np.flatnonzero(c < 0)
        zero = np.flatnonzero(c == 0)
        if len(pos) and len(neg):
            # combined[i, j] = (-c[neg[j]]) * rows[pos[i]] + c[pos[i]] * rows[neg[j]],
            # flattened with the positive row as the outer loop — the same
            # pair order as the reference implementation.
            combined = (
                (-c[neg])[np.newaxis, :, np.newaxis] * rows[pos][:, np.newaxis, :]
                + (c[pos])[:, np.newaxis, np.newaxis] * rows[neg][np.newaxis, :, :]
            ).reshape(-1, rows.shape[1])
            divisor = np.gcd.reduce(np.abs(combined), axis=1)
            divisor[divisor == 0] = 1
            combined //= divisor[:, np.newaxis]
            rows = np.vstack([rows[zero], combined])
        else:
            rows = rows[zero]
        if len(rows) > max_rows:
            raise RuntimeError(
                "semiflow computation exceeded the safety cap "
                f"({len(rows)} intermediate rows)"
            )
        rows = _prune_non_minimal_vectorized(rows, n_cols)
    supports = rows[:, n_cols:]
    return [
        supports[i].copy() for i in range(len(supports)) if np.any(supports[i])
    ]


#: Above this many tableau rows the pairwise n x n subset matrix of the
#: vectorized prune would dominate memory (n^2 int64), so the O(n)-memory
#: reference loop takes over instead.
_PRUNE_VECTOR_LIMIT = 4096


def _prune_non_minimal_vectorized(rows: np.ndarray, n_cols: int) -> np.ndarray:
    """Vectorized equivalent of :func:`_prune_non_minimal`.

    Drops rows whose coefficient support strictly contains another
    row's, and all but the first of any group with identical support —
    the same keep set, in the same order, as the reference loop.
    """
    n = len(rows)
    if n <= 1:
        return rows
    if n > _PRUNE_VECTOR_LIMIT:
        n_vars = rows.shape[1] - n_cols
        kept = _prune_non_minimal([rows[i] for i in range(n)], n_cols, n_vars)
        return np.vstack(kept) if kept else rows[:0]
    support = rows[:, n_cols:] != 0
    sizes = support.sum(axis=1)
    inter = support.astype(np.int64) @ support.astype(np.int64).T
    # subset[j, i]: support_j is a (non-strict) subset of support_i
    subset = inter == sizes[:, np.newaxis]
    strict = subset & (sizes[:, np.newaxis] < sizes[np.newaxis, :])
    drop = strict.any(axis=0)
    order = np.arange(n)
    duplicate = subset & subset.T & (order[:, np.newaxis] < order[np.newaxis, :])
    drop |= duplicate.any(axis=0)
    return rows[~drop]


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def t_invariants(net: PetriNet) -> List[Dict[str, int]]:
    """Return the minimal-support T-invariants of ``net``.

    Each invariant is a ``{transition: count}`` mapping with positive
    counts only.  Transitions absent from the mapping fire zero times.
    """
    matrices = incidence_matrices(net)
    if not matrices.transitions:
        return []
    solutions = _minimal_semiflows(matrices.incidence)
    invariants = [matrices.counts_from_vector(v) for v in solutions]
    invariants.sort(key=lambda inv: sorted(inv.items()))
    return invariants


def combine_invariants(invariants: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Sum a collection of T-invariants into a single firing-count vector."""
    total: Dict[str, int] = {}
    for invariant in invariants:
        for transition, count in invariant.items():
            total[transition] = total.get(transition, 0) + count
    return total

"""k-nearest-neighbor selection over precomputed similarity matrices.

Similarities are given, not computed: every routine here just ranks them.
Ordering is by descending similarity with ties broken by ascending index,
and NaN last: the picks are exactly the first k columns of a stable
``argsort`` of the negated rows.

Ranking partitions, then orders: ``np.partition`` finds each row's k-th
value, and one stable sort orders only the entries at or above it (every
entry of a row with fewer than k non-NaN values), which are a prefix of
the row's full stable order, whatever the ties.
"""

from __future__ import annotations

import numpy as np

__all__ = ["neighbor_table", "top_k"]


def _check_count(value, name: str, low: int = 1):
    """Reject a count that is not an integer (``bool`` is not one) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"need an integer {name} >= {low}, got {name}={value!r}")


def top_k(similarities: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k most similar columns of every row, ties to the lower index.

    Returns ``(indices, similarities)``, each of shape (rows, k') with
    k' = min(k, columns), row i holding its picks best first.
    """
    rows, cols = similarities.shape
    k = min(k, cols)
    if rows == 0 or k == 0:
        order = np.empty((rows, k), dtype=np.intp)
        return order, np.take_along_axis(similarities, order, axis=1)
    # Stable sort on negated values: descending similarity, ascending index on ties.
    neg = -similarities
    kth = np.partition(neg, k - 1, axis=1)[:, [k - 1]]  # a copy: the partitioned matrix is freed here
    flat = np.flatnonzero((neg <= kth) | np.isnan(kth))  # candidates, row by row in column order
    keys = neg.ravel()[flat]
    if flat.size == rows * k:  # no row ties at its k-th value
        picks = np.take_along_axis(flat.reshape(rows, k), keys.reshape(rows, k).argsort(axis=1, kind="stable"), axis=1)
    else:
        row = flat // cols
        ranked = flat[np.lexsort((keys, row))]  # by row, then value, then column
        picks = ranked[np.searchsorted(row, np.arange(rows))[:, None] + np.arange(k)]
    order = picks % cols
    return order, np.take_along_axis(similarities, order, axis=1)


def neighbor_table(similarity: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Self-excluded k nearest neighbors for every row of a square matrix.

    Returns ``(indices, similarities)``, each of shape (n, min(k, n - 1)),
    row i holding the neighbors of entity i in decreasing similarity.
    Entity i itself is never its own neighbor.
    """
    _check_count(k, "k")
    sim = np.asarray(similarity, dtype=float)
    n = sim.shape[0]
    if sim.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {sim.shape}")
    if n < 2:
        raise ValueError(f"need at least 2 entities, got n={n}")
    k = min(k, n - 1)
    # One spare pick per row: drop entity i where it was picked, the
    # spare everywhere else.
    indices, sims = top_k(sim, k + 1)
    keep = indices != np.arange(n)[:, None]
    keep[keep.all(axis=1), -1] = False
    return indices[keep].reshape(n, k), sims[keep].reshape(n, k)

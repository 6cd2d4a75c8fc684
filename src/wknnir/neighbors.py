"""k-nearest-neighbor selection over precomputed similarity matrices.

Similarities are given, not computed: every routine here just ranks them.
Ordering is by descending similarity with ties broken by ascending index,
and NaN last: the picks are exactly the first k columns of a stable
``argsort`` of the negated rows.

Ranking partitions, then orders: ``np.partition`` finds each row's k-th
value, and one stable sort orders only the entries at or above it, which
are a prefix of the row's full stable order, whatever the ties. Only a
row whose k-th value is NaN (fewer than k non-NaN values) widens that set
to every entry of the row, and only then is the NaN mask applied at all.
Self is never a neighbor: a side of 0 or 1 entities gets an empty table.
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
    k' = min(k, columns), row i holding its picks best first. Only a row
    whose k-th value is NaN widens its candidates to all its entries.
    ``ValueError`` unless k is an integer >= 1.
    """
    _check_count(k, "k")
    rows, cols = similarities.shape
    k = min(k, cols)
    if rows == 0 or k == 0:
        order = np.empty((rows, k), dtype=np.intp)
        return order, np.take_along_axis(similarities, order, axis=1)
    # Stable sort on negated values: descending similarity, ascending index on ties.
    neg = -similarities
    neg.partition(k - 1, axis=1)  # in place: neg is only read for its k-th column
    kth = neg[:, [k - 1]]
    candidates = similarities >= -kth
    if np.isnan(kth).any():  # only then is the NaN mask applied
        candidates |= np.isnan(kth)
    flat = np.flatnonzero(candidates)  # row by row, in column order
    values = similarities.ravel()
    keys = -values[flat]
    if flat.size == rows * k:  # no row ties at its k-th value
        picks = np.take_along_axis(flat.reshape(rows, k), keys.reshape(rows, k).argsort(axis=1, kind="stable"), axis=1)
    else:
        row = flat // cols
        ranked = flat[np.lexsort((keys, row))]  # by row, then value, then column
        picks = ranked[np.searchsorted(row, np.arange(rows))[:, None] + np.arange(k)]
    return picks % cols, values[picks]


def neighbor_table(similarity: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Self-excluded k nearest neighbors for every row of a square matrix.

    Returns ``(indices, similarities)``, each (n, max(0, min(k, n - 1))),
    row i holding the neighbors of entity i in decreasing similarity.
    Entity i itself is never its own neighbor.
    """
    _check_count(k, "k")
    sim = np.asarray(similarity, dtype=float)
    n = sim.shape[0]
    if sim.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {sim.shape}")
    k = max(min(k, n - 1), 0)
    # One spare pick per row: drop entity i where it was picked, the
    # spare everywhere else.
    indices, sims = top_k(sim, k + 1)
    keep = indices != np.arange(n)[:, None]
    keep[keep.all(axis=1), k:] = False
    return indices[keep].reshape(n, k), sims[keep].reshape(n, k)

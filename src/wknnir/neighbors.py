"""k-nearest-neighbor selection over precomputed similarity matrices.

Similarities are given, not computed: every routine here just ranks them.
Ordering is by descending similarity with ties broken by ascending index,
and NaN last, which makes neighbor lists deterministic for any input: the
picks are exactly the first k columns of a stable ``argsort`` of the
negated rows.

Ranking partitions, then orders: ``np.partition`` finds each row's k-th
value, and only the entries at or above it, in ascending column order,
are stable-sorted. They are a prefix of the row's full stable order, so
the result is the same. Where the candidates make up much of a row (a
row with fewer than k non-NaN values, or a tie at the k-th value
covering half of the columns, such as an all-zero row), the whole matrix
is sorted instead, which is then cheaper.
"""

from __future__ import annotations

import numpy as np

__all__ = ["neighbor_table", "top_k"]


def top_k(similarities: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k most similar columns of every row, ties to the lower index.

    Returns ``(indices, similarities)``, each of shape (rows, k') with
    k' = min(k, columns), row i holding its picks best first.
    """
    rows, cols = similarities.shape
    k = min(k, cols)
    # Stable sort on negated values: descending similarity, ascending index on ties.
    neg = -similarities
    found = _candidates(neg, k) if rows and 0 < k < cols else None
    if found is None:
        order = np.argsort(neg, axis=1, kind="stable")[:, :k]
    else:
        picks, keys = found
        order = np.take_along_axis(picks, np.argsort(keys, axis=1, kind="stable")[:, :k], axis=1) % cols
    return order, np.take_along_axis(similarities, order, axis=1)


def _candidates(neg: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Every entry at or below its row's k-th smallest value of ``neg``.

    Returns ``(picks, keys)``: flat indices into ``neg`` and their values,
    one row per row of ``neg`` in ascending column order, padded at the
    end with NaN keys, which a stable sort puts after every candidate.
    Returns None, to sort the whole matrix instead, where some row has
    fewer than k non-NaN values or candidates in half of its columns.
    """
    rows, cols = neg.shape
    kth = np.partition(neg, k - 1, axis=1)[:, [k - 1]]  # a copy: the partitioned matrix is freed here
    if np.isnan(kth).any():  # fewer than k non-NaN values: every entry is a candidate
        return None
    cand = neg <= kth
    flat = np.flatnonzero(cand)
    if flat.size == rows * k:  # no row ties at its k-th value
        return flat.reshape(rows, k), neg.ravel()[flat].reshape(rows, k)
    counts = np.count_nonzero(cand, axis=1)
    width = int(counts.max())
    if 2 * width >= cols:
        return None
    # (row, place within the row) of every candidate
    at = (flat // cols, np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts))
    picks = np.zeros((rows, width), dtype=np.intp)
    keys = np.full((rows, width), np.nan)
    picks[at] = flat
    keys[at] = neg.ravel()[flat]
    return picks, keys


def neighbor_table(similarity: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Self-excluded k nearest neighbors for every row of a square matrix.

    Returns ``(indices, similarities)``, each of shape (n, k), row i
    holding the neighbors of entity i in decreasing similarity. Entity i
    itself is never its own neighbor.
    """
    sim = np.asarray(similarity, dtype=float)
    n = sim.shape[0]
    if sim.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {sim.shape}")
    if k < 1 or n < 2:
        raise ValueError(f"need k >= 1 and at least 2 entities, got k={k}, n={n}")
    k = min(k, n - 1)
    # One spare pick per row: drop entity i where it was picked, the
    # spare everywhere else.
    indices, sims = top_k(sim, k + 1)
    keep = indices != np.arange(n)[:, None]
    keep[keep.all(axis=1), -1] = False
    return indices[keep].reshape(n, k), sims[keep].reshape(n, k)

"""k-nearest-neighbor selection over precomputed similarity matrices.

Similarities are given, not computed: every routine here just ranks them.
Ordering is by descending similarity with ties broken by ascending index,
which makes neighbor lists deterministic for any input.
"""

from __future__ import annotations

import numpy as np

__all__ = ["neighbor_table", "top_k"]


def top_k(similarities: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k most similar columns of every row, ties to the lower index.

    Returns ``(indices, similarities)``, each of shape (rows, k') with
    k' = min(k, columns), row i holding its picks best first.
    """
    # Stable sort on negated values: descending similarity, ascending index on ties.
    order = np.argsort(-similarities, axis=1, kind="stable")[:, : min(k, similarities.shape[1])]
    return order, np.take_along_axis(similarities, order, axis=1)


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

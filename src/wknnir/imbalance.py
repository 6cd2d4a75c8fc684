"""Local imbalance: how much each interaction disagrees with its neighborhood.

A pair (drug i, target j) is locally imbalanced on the drug side when the
k drugs most similar to drug i (self excluded) tend to carry the opposite
label for target j. Averaging the pair scores over interacting pairs
gives a dataset-level number per side; summing them per entity gives an
importance weight that sampling strategies can exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DtiDataset
from .neighbors import _check_count, neighbor_table

__all__ = ["ImbalanceReport", "imbalance_report"]


@dataclass(frozen=True)
class ImbalanceReport:
    """Dataset-level imbalance and per-entity importances at one k.

    ``li_drug`` and ``li_target`` average the pair imbalance over
    interacting pairs. ``drug_importance[i]`` sums drug-side pair
    imbalance over the targets drug i interacts with; higher means the
    drug's interactions are harder to recover from its neighborhood.
    Symmetrically for targets.
    """

    li_drug: float
    li_target: float
    drug_importance: np.ndarray  # (n,)
    target_importance: np.ndarray  # (m,)


def _check_k(k: int, count: int, side: str):
    if count < 2:
        raise ValueError(f"local imbalance needs at least 2 {side}s, got {count}")
    if not 1 <= k <= count - 1:
        raise ValueError(f"k={k} out of range [1, {count - 1}] on the {side} side")


def imbalance_report(ds: DtiDataset, k: int) -> ImbalanceReport:
    """All imbalance quantities at one k, ranking each similarity matrix once.

    Raises ``ValueError`` when the dataset has no interactions, since the
    averages are then undefined.
    """
    Y = ds.interactions
    total = Y.sum()
    if total == 0:
        raise ValueError("no interactions; local imbalance is undefined")
    _check_count(k, "k")
    _check_k(k, ds.n, "drug")
    _check_k(k, ds.m, "target")
    d_idx, _ = neighbor_table(ds.drug_sim, k)
    t_idx, _ = neighbor_table(ds.target_sim, k)
    # At an interacting pair (i, j), drug_pair[i, j] is the fraction of drug
    # i's k nearest drugs that do not interact with target j; target_pair the
    # same over target j's k nearest targets. Elsewhere both are 0. Labels are
    # read by flat index, k rows of pairs; a count is exact, so count / k is the mean.
    I, J = ds._pairs
    flat, m = Y.ravel(), ds.m
    cells = I * m + J
    drug_diff = (flat.take(d_idx.T.take(I, axis=1) * m + J) == 0.0).sum(axis=0)
    target_diff = (flat.take(t_idx.T.take(J, axis=1) + I * m) == 0.0).sum(axis=0)
    drug_pair, target_pair = np.zeros(Y.shape), np.zeros(Y.shape)
    drug_pair.ravel()[cells] = drug_diff / k
    target_pair.ravel()[cells] = target_diff / k
    return ImbalanceReport(
        li_drug=float(drug_pair.sum() / total),
        li_target=float(target_pair.sum() / total),
        drug_importance=drug_pair.sum(axis=1),
        target_importance=target_pair.sum(axis=0),
    )


def _clamped_report(ds: DtiDataset, k: int) -> ImbalanceReport | None:
    """``imbalance_report`` with k clamped to both sides, as the models need it.

    Returns None for degenerate inputs (one entity on a side, or no
    interactions): they carry no disagreement evidence.
    """
    if ds.n < 2 or ds.m < 2 or not ds.interactions.any():
        return None
    return imbalance_report(ds, min(k, ds.n - 1, ds.m - 1))


"""Local imbalance: how much each interaction disagrees with its neighborhood.

A pair (drug i, target j) is locally imbalanced on the drug side when the
k drugs most similar to drug i (self excluded) tend to carry the opposite
label for target j. Averaging the pair scores over interacting pairs
gives a dataset-level number per side; summing them per entity gives an
importance weight that sampling strategies can exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import DtiDataset
from .neighbors import _check_count, neighbor_table

__all__ = ["DatasetStats", "ImbalanceReport", "dataset_stats", "imbalance_report"]


@dataclass(frozen=True)
class ImbalanceReport:
    """Dataset-level imbalance and per-entity importances at one k.

    ``li_drug`` and ``li_target`` average the pair imbalance over
    interacting pairs. ``drug_importance[i]`` sums drug-side pair
    imbalance over the targets drug i interacts with; higher means the
    drug's interactions are harder to recover from its neighborhood.
    Symmetrically for targets.
    """

    k: int
    li_drug: float
    li_target: float
    drug_importance: np.ndarray  # (n,)
    target_importance: np.ndarray  # (m,)


def _check_k(k: int, limit: int, side: str):
    if not 1 <= k <= limit:
        raise ValueError(f"k={k} out of range [1, {limit}] on the {side} side")


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
    _check_k(k, ds.n - 1, "drug")
    _check_k(k, ds.m - 1, "target")
    d_idx, _ = neighbor_table(ds.drug_sim, k)
    t_idx, _ = neighbor_table(ds.target_sim, k)
    # drug_pair[i, j] is the fraction of drug i's k nearest drugs whose
    # label for target j differs from Y[i, j]; target_pair the same over
    # target j's k nearest targets. Both are read only through their
    # product with Y, so they are left 0 away from interacting pairs.
    I, J = ds._pairs
    y = Y[I, J][:, None]
    drug_pair, target_pair = np.zeros(Y.shape), np.zeros(Y.shape)
    drug_pair[I, J] = (Y[d_idx[I], J[:, None]] != y).mean(axis=1)
    target_pair[I, J] = (Y[I[:, None], t_idx[J]] != y).mean(axis=1)
    drug_pair, target_pair = drug_pair * Y, target_pair * Y
    return ImbalanceReport(
        k=k,
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


@dataclass(frozen=True)
class DatasetStats:
    """Size, density, and local-imbalance summary of a dataset.

    ``sparsity`` is kept as an exact fraction interaction_count / (n*m);
    use ``float()`` for display.
    """

    n: int
    m: int
    interaction_count: int
    sparsity: Fraction
    imbalance: ImbalanceReport


def dataset_stats(ds: DtiDataset, k: int) -> DatasetStats:
    """Counts, exact sparsity, and the local-imbalance report at size k.

    ``imbalance_report`` rejects a k outside [1, side size - 1] and a
    dataset without interactions.
    """
    report = imbalance_report(ds, k)
    count = int(round(float(ds.interactions.sum())))
    return DatasetStats(ds.n, ds.m, count, Fraction(count, ds.n * ds.m), report)

"""Local imbalance: how much each interaction disagrees with its neighborhood.

A pair (drug i, target j) is locally imbalanced on the drug side when the
k drugs most similar to drug i (self excluded) tend to carry the opposite
label for target j. Averaging the pair scores over interacting pairs
gives a dataset-level number per side; summing them per entity gives an
importance weight that sampling strategies can exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .neighbors import _check_count, neighbor_table

if TYPE_CHECKING:
    from .data import DtiDataset

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

    k: int
    li_drug: float
    li_target: float
    drug_importance: np.ndarray  # (n,)
    target_importance: np.ndarray  # (m,)


def _check_k(k: int, limit: int, side: str):
    if not 1 <= k <= limit:
        raise ValueError(f"k={k} out of range [1, {limit}] on the {side} side")


def imbalance_report(ds: "DtiDataset", k: int) -> ImbalanceReport:
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
    # product with Y, so they are computed at interacting pairs and left 0
    # elsewhere. target_pair is built transposed, as when it was computed
    # from the target side: the products keep their layout, and with it
    # the rounding of every sum below.
    I, J = np.nonzero(Y != 0)  # the same pairs as np.nonzero(Y), found about twice as fast
    y = Y[I, J][:, None]
    drug_pair, target_pair = np.zeros(Y.shape), np.zeros(Y.shape[::-1]).T
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


def _clamped_report(ds: "DtiDataset", k: int) -> ImbalanceReport | None:
    """``imbalance_report`` with k clamped to both sides, as the models need it.

    Returns None for degenerate inputs (one entity on a side, or no
    interactions): they carry no disagreement evidence.
    """
    if ds.n < 2 or ds.m < 2 or not ds.interactions.any():
        return None
    return imbalance_report(ds, min(k, ds.n - 1, ds.m - 1))

"""Seeded synthetic DTI datasets at the published benchmark shapes.

The real NR/IC/GPCR/E matrices are not redistributable, so every workload
runs on data drawn here. Drugs and targets get latent points; similarity
is a Gaussian kernel of latent distance (symmetric, unit diagonal, in
[0, 1]) and interactions are drawn, exactly ``count`` of them, with
probability rising with latent affinity, so similarity predicts
interaction as it does in the real benchmarks.

``ties=True`` quantises similarities to one decimal and zeroes everything
below 0.3: many exact zeros and repeated values, the case where ranking
does its most tie-breaking work.
"""

from __future__ import annotations

import numpy as np

# (drugs, targets, interactions) of the four published benchmarks.
SHAPES = {"nr": (54, 26, 90), "ic": (210, 204, 1476), "gpcr": (223, 95, 635), "e": (445, 664, 2926)}
# Small shapes for the benchmark's self-test.
TINY_SHAPES = {"ic": (24, 22, 60), "e": (30, 36, 80)}

LATENT_DIM = 6
TIE_LEVELS = 10
TIE_FLOOR = 0.3


def _similarity(points: np.ndarray, ties: bool) -> np.ndarray:
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    sim = np.exp(-d2 / np.median(d2[d2 > 0]))
    if ties:
        sim = np.round(sim * TIE_LEVELS) / TIE_LEVELS
        sim[sim < TIE_FLOOR] = 0.0
    sim = (sim + sim.T) / 2
    np.fill_diagonal(sim, 1.0)
    return np.clip(sim, 0.0, 1.0)


def generate(n: int, m: int, count: int, seed: int, ties: bool = False, held_drugs: int = 0, held_targets: int = 0):
    """Draw one dataset plus optional held-out entities.

    Returns ``(drug_sim, target_sim, interactions)`` over ``n + held_drugs``
    drugs and ``m + held_targets`` targets. Exactly ``count`` interactions
    fall in the leading ``n x m`` training block; held-out rows and
    columns of the interaction matrix are zero.
    """
    rng = np.random.default_rng(seed)
    drugs = rng.normal(size=(n + held_drugs, LATENT_DIM))
    targets = rng.normal(size=(m + held_targets, LATENT_DIM))
    drug_sim = _similarity(drugs, ties)
    target_sim = _similarity(targets, ties)
    affinity = drugs[:n] @ targets[:m].T
    weight = np.exp(2.0 * (affinity - affinity.max())).ravel()
    picked = rng.choice(n * m, size=count, replace=False, p=weight / weight.sum())
    interactions = np.zeros((n + held_drugs, m + held_targets))
    interactions[picked // m, picked % m] = 1.0
    return drug_sim, target_sim, interactions


def check_valid(drug_sim, target_sim, interactions) -> None:
    """Raise ValueError unless the matrices meet the dataset contract."""
    for label, sim in (("drug", drug_sim), ("target", target_sim)):
        if not np.array_equal(sim, sim.T):
            raise ValueError(f"{label} similarity is not symmetric")
        if not np.all(np.diag(sim) == 1.0):
            raise ValueError(f"{label} similarity diagonal is not 1")
        if sim.min() < 0.0 or sim.max() > 1.0:
            raise ValueError(f"{label} similarity leaves [0, 1]")
    if not np.isin(interactions, (0.0, 1.0)).all():
        raise ValueError("interactions are not binary")

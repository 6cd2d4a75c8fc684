"""Shared fixtures: the hand-checked F1 dataset and random dataset factories."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from wknnir import DtiDataset, subset
import exact

# 3 drugs x 2 targets, small enough to enumerate every quantity by hand.
F1_DRUG_SIM = [[1.0, 0.8, 0.2], [0.8, 1.0, 0.4], [0.2, 0.4, 1.0]]
F1_TARGET_SIM = [[1.0, 0.5], [0.5, 1.0]]
F1_INTERACTIONS = [[1, 0], [0, 1], [1, 1]]


def make_dataset(drug_sim, target_sim, interactions):
    n = len(drug_sim)
    m = len(target_sim)
    return DtiDataset(
        tuple(f"d{i}" for i in range(n)),
        tuple(f"t{j}" for j in range(m)),
        drug_sim,
        target_sim,
        interactions,
    )


def random_dataset(n, m, seed, density=0.3):
    """Valid random dataset: symmetric unit-diagonal sims, nonempty binary Y."""
    rng = np.random.default_rng(seed)

    def sym(size):
        a = rng.random((size, size))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 1.0)
        return a

    drug_sim = sym(n)
    target_sim = sym(m)
    Y = (rng.random((n, m)) < density).astype(float)
    if Y.sum() == 0:
        Y[rng.integers(n), rng.integers(m)] = 1.0
    return make_dataset(drug_sim, target_sim, Y)


def load_datagen():
    """The benchmark's seeded generator, loaded from its file rather than copied."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "datagen.py"
    spec = importlib.util.spec_from_file_location("datagen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def f1():
    return make_dataset(F1_DRUG_SIM, F1_TARGET_SIM, F1_INTERACTIONS)


def varied_dataset(rng):
    """A hand-built dataset from the corners the sparse kernels must match.

    Sides of 1 to 24 entities; similarities either distinct or quantised to
    a few levels (tie-heavy), with some all-zero rows; binary labels with
    all-zero rows and columns, some passed with negative zeros, which the
    dataset stores as +0.0. Some labels are passed Fortran-ordered, which
    the dataset stores C-ordered, so they check that the layout is
    normalised. A third of the datasets are subsets taken in a shuffled order.
    """
    n, m = int(rng.integers(1, 25)), int(rng.integers(1, 25))

    def sim(size):
        a = rng.random((size, size))
        if rng.random() < 0.5:
            a = np.round(a * rng.integers(1, 5)) / 4
        a = (a + a.T) / 2
        if size > 2 and rng.random() < 0.3:
            zero = rng.integers(size)
            a[zero, :] = a[:, zero] = 0.0
        np.fill_diagonal(a, 1.0)
        return a

    Y = (rng.random((n, m)) < rng.random()).astype(float)
    if rng.random() < 0.3:
        Y[rng.integers(n), :] = 0.0
        Y[:, rng.integers(m)] = 0.0
    if rng.random() < 0.2:
        Y[Y == 0] = -0.0
    if rng.random() < 0.2:
        Y = np.asfortranarray(Y)
    ds = make_dataset(sim(n), sim(m), Y)
    if rng.random() < 1 / 3:
        ds = subset(ds, rng.permutation(n)[: rng.integers(1, n + 1)], rng.permutation(m)[: rng.integers(1, m + 1)])
    return ds


def pytest_terminal_summary(terminalreporter):
    """The largest distance from the exact referee per formula, which a change to output bits quotes."""
    if exact.WORST:
        worst = ", ".join(f"{formula} {ulps:.2f}" for formula, ulps in sorted(exact.WORST.items()))
        terminalreporter.write_line(f"max ulp from the exact referee: {worst}")

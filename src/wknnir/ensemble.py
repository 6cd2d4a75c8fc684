"""Bagging over sampled entity subsets with selective prediction.

Each member is a base model fitted on a weighted sample of drugs and
targets (without replacement). Three sampling strategies set the weights:
uniform, proportional to interaction counts, or proportional to
local-imbalance importance. At prediction time, members whose sample
lacks the query's training entity abstain; the rest are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DtiDataset, subset
from .imbalance import _clamped_report
from .models import _check_profiles, _NeighborPredictor
from .neighbors import _check_count

__all__ = [
    "SamplingStrategy",
    "EnsembleMember",
    "EnsembleModel",
    "sampling_probabilities",
    "sample_without_replacement",
    "train_ensemble",
]

STRATEGY_KINDS = ("uniform", "global", "local")


@dataclass(frozen=True)
class SamplingStrategy:
    """How member subsets are drawn.

    ``uniform`` ignores the data; ``global`` weights entities by their
    interaction counts; ``local`` weights them by local-imbalance
    importance at neighborhood size ``k``. ``sigma`` smooths the weights
    so zero-count entities keep a nonzero chance.
    """

    kind: str
    sigma: float = 0.1
    k: int = 5

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown sampling strategy {self.kind!r}; expected one of {STRATEGY_KINDS}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and non-negative, got {self.sigma!r}")
        if self.kind == "local":
            _check_count(self.k, "k")


@dataclass(frozen=True, eq=False)
class EnsembleMember:
    """One base model plus the ordered entity subsets it was trained on."""

    model: object
    drug_subset: np.ndarray  # ordered sample, positions define member-local indices
    target_subset: np.ndarray


@dataclass(frozen=True, eq=False)
class EnsembleModel:
    """Averaged committee of base models over entity subsets."""

    dataset: DtiDataset
    members: tuple

    @property
    def q(self) -> int:
        return len(self.members)

    def _selective_average(self, profiles, new_drugs: bool):
        """S2 (new drugs) or S3 (new targets) scores: (U, query side) -> (U, other side).

        Each member answers for the entities of its own sample, and the
        answers are averaged per entity. An entity that no member sampled
        is answered as a both-new pair from its similarity profile.
        """
        answer_sim = self.dataset.target_sim if new_drugs else self.dataset.drug_sim
        acc = np.zeros((profiles.shape[0], answer_sim.shape[0]))
        cnt = np.zeros(answer_sim.shape[0])
        for mem in self.members:
            if new_drugs:
                query, answered, predict = mem.drug_subset, mem.target_subset, mem.model.predict_s2
            else:
                query, answered, predict = mem.target_subset, mem.drug_subset, mem.model.predict_s3
            acc[:, answered] += predict(profiles[:, query])
            cnt[answered] += 1
        out = np.zeros_like(acc)
        covered = cnt > 0
        out[:, covered] = acc[:, covered] / cnt[covered]
        missing = np.flatnonzero(~covered)
        if missing.size:
            rows = answer_sim[missing]
            out[:, missing] = self.predict_s4(profiles, rows) if new_drugs else self.predict_s4(rows, profiles).T
        return out

    def predict_s2(self, drug_profiles) -> np.ndarray:
        """Score new drugs against every training target: (U, n) -> (U, m)."""
        return self._selective_average(_check_profiles(drug_profiles, self.dataset.n, "drug"), new_drugs=True)

    def predict_s3(self, target_profiles) -> np.ndarray:
        """Score new targets against every training drug: (V, m) -> (V, n)."""
        return self._selective_average(_check_profiles(target_profiles, self.dataset.m, "target"), new_drugs=False)

    def predict_s4(self, drug_profiles, target_profiles) -> np.ndarray:
        """Score new drugs x new targets: (U, n), (V, m) -> (U, V)."""
        dp = _check_profiles(drug_profiles, self.dataset.n, "drug")
        tp = _check_profiles(target_profiles, self.dataset.m, "target")
        acc = np.zeros((dp.shape[0], tp.shape[0]))
        for mem in self.members:
            acc += mem.model.predict_s4(dp[:, mem.drug_subset], tp[:, mem.target_subset])
        return acc / self.q

    # Shared as a class attribute, not inherited: the ensemble has no label matrices.
    predict = _NeighborPredictor.predict


def sampling_probabilities(ds: DtiDataset, strategy: SamplingStrategy):
    """Per-entity sampling weights, one simplex vector per side."""
    if strategy.kind == "uniform":
        return np.full(ds.n, 1.0 / ds.n), np.full(ds.m, 1.0 / ds.m)
    report = _clamped_report(ds, strategy.k) if strategy.kind == "local" else None
    if report is None:
        # Counts serve `global`, and `local` where the data carries no imbalance evidence.
        drug_w = ds.interactions.sum(axis=1)
        target_w = ds.interactions.sum(axis=0)
    else:
        drug_w, target_w = report.drug_importance, report.target_importance
    probs = []
    for w in (drug_w, target_w):
        total = w.size * strategy.sigma + w.sum()
        # sigma = 0 on an all-zero side: uniform, the sigma -> 0+ limit and what any sigma > 0 gives.
        probs.append((strategy.sigma + w) / total if total > 0 else np.full(w.size, 1.0 / w.size))
    return tuple(probs)


def sample_without_replacement(probs, count: int, rng) -> np.ndarray:
    """Draw ``count`` distinct indices by repeated weighted selection.

    Each draw picks an undrawn index with probability proportional to its
    weight, then zeroes that weight. ``rng`` is a seed or a
    ``numpy.random.Generator``; the result is an ordered index array,
    deterministic given the seed.

    The draws equal those of ``Generator.choice(p=...)`` on the undrawn
    weights renormalised: the total sums the same numbers in the same
    order, the zeroed weights add exactly in the cumulative sum, and each
    draw searches it with one ``random()``, as ``choice`` does.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"probs must be 1-D, got shape {p.shape}")
    # Phrased so that NaN fails too.
    if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):
        raise ValueError("probs is not a probability vector")
    if not 1 <= count <= p.size:
        raise ValueError(f"count={count} out of range [1, {p.size}]")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    weights = p.copy()
    undrawn = np.ones(p.size, dtype=bool)
    out = np.empty(count, dtype=int)
    for t in range(count):
        total = weights[undrawn].sum()
        if total <= 0:
            raise ValueError(f"only {t} indices have nonzero probability, need {count}")
        cdf = np.cumsum(weights / total)
        cdf /= cdf[-1]
        pick = int(cdf.searchsorted(gen.random(), side="right"))
        out[t] = pick
        weights[pick] = 0.0
        undrawn[pick] = False
    return out


def _subset_size(total: int, ratio: float) -> int:
    return min(total, max(1, int(round(total * ratio))))


def train_ensemble(
    ds: DtiDataset, base_factory, q: int, R: float, strategy: SamplingStrategy, seed: int = 0
) -> EnsembleModel:
    """Fit q base models on weighted entity samples of relative size R.

    Member i draws its drug subset then its target subset from a stream
    seeded with seed+i, so members are independent and any prefix of the
    ensemble is reproducible.
    """
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q!r}")
    if not 0 < R <= 1:
        raise ValueError(f"R must be in (0, 1], got {R!r}")
    p_drug, p_target = sampling_probabilities(ds, strategy)
    n_draw = _subset_size(ds.n, R)
    m_draw = _subset_size(ds.m, R)
    members = []
    for i in range(1, q + 1):
        gen = np.random.default_rng(seed + i)
        drugs = sample_without_replacement(p_drug, n_draw, gen)
        targets = sample_without_replacement(p_target, m_draw, gen)
        model = base_factory(subset(ds, drugs, targets))
        members.append(EnsembleMember(model, drugs, targets))
    return EnsembleModel(ds, tuple(members))


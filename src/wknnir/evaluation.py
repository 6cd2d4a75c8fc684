"""Cross-validation, AUPR, hyperparameter tuning, and novel-pair ranking.

Three CV protocols, one per prediction setting: drug-wise folds (S2),
target-wise folds (S3), and block-wise folds holding out a drug fold and
a target fold jointly (S4), where training uses only the remaining-drug x
remaining-target submatrix. Fold assignment is a seeded shuffle dealt
round-robin, so fold sizes differ by at most one and runs are exactly
reproducible.

A learner here is any callable mapping a training dataset to a fitted
model exposing predict_s2 / predict_s3 / predict_s4.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .data import DtiDataset, subset
from .ensemble import SamplingStrategy, train_ensemble
from .models import fit_wknn, fit_wknnir
from .neighbors import _check_count

__all__ = [
    "SETTINGS",
    "OUTER_FOLDS",
    "INNER_FOLDS",
    "DEFAULT_GRID",
    "CvPlan",
    "Fold",
    "FoldResult",
    "CvResult",
    "ParamGrid",
    "generate_folds",
    "aupr",
    "run_cv",
    "tune_hyperparameters",
    "rank_novel",
    "base_factory",
    "fixed_learner",
    "tuned_learner",
    "ensemble_factory",
]

SETTINGS = ("S2", "S3", "S4")
OUTER_FOLDS = {"S2": 10, "S3": 10, "S4": 3}
INNER_FOLDS = {"S2": 5, "S3": 5, "S4": 2}


@dataclass(frozen=True)
class CvPlan:
    """Shape of one CV experiment; folds are per side for S4."""

    setting: str
    folds: int
    repetitions: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValueError(f"unknown setting {self.setting!r}; expected one of {SETTINGS}")
        _check_count(self.folds, "folds", 2)
        _check_count(self.repetitions, "repetitions")


@dataclass(frozen=True, eq=False)
class Fold:
    """Index sets for one train/test split: one drug part x one target part.

    A held-out side tests its part and trains on the rest. A side that
    is not held out (targets in S2, drugs in S3) has an empty test part
    and trains on all its entities, which are then the scored ones.
    """

    setting: str
    repetition: int
    index: int
    train_drugs: np.ndarray
    train_targets: np.ndarray
    test_drugs: np.ndarray
    test_targets: np.ndarray


@dataclass(frozen=True)
class FoldResult:
    repetition: int
    index: int
    aupr: float  # NaN when the fold has no positive test pair
    pairs: int
    positives: int


@dataclass(frozen=True)
class CvResult:
    """Per-fold AUPRs and their mean over folds x repetitions.

    Folds without a positive test pair are undefined and excluded from
    the mean (their per-fold value is NaN).
    """

    setting: str
    folds: tuple
    mean_aupr: float


@dataclass(frozen=True)
class ParamGrid:
    """Exhaustive (k, eta) grid; cells are visited in the given order."""

    k_values: tuple
    eta_values: tuple

    def __post_init__(self):
        if not self.k_values or not self.eta_values:
            raise ValueError("parameter grid must be non-empty")

    def cells(self):
        return product(self.k_values, self.eta_values)


DEFAULT_GRID = ParamGrid((1, 2, 3, 5, 7, 9), tuple(round(0.1 * i, 1) for i in range(1, 11)))


def _parts(rng, size: int, folds: int, held: bool, side: str) -> list:
    """One side's test parts: a seeded shuffle dealt round-robin, or one empty part if not held out."""
    if not held:
        return [np.array([], dtype=int)]
    if folds > size:
        raise ValueError(f"fold count {folds} exceeds {side} count {size}")
    perm = rng.permutation(size)
    return [np.sort(perm[f::folds]) for f in range(folds)]


def generate_folds(ds: DtiDataset, plan: CvPlan) -> list:
    """Deterministic fold list for a plan; repetition r reshuffles with seed+r.

    Every setting pairs each drug part with each target part, so fold
    ``index`` is drug part x target part count + target part.
    """
    all_drugs = np.arange(ds.n)
    all_targets = np.arange(ds.m)
    out = []
    for rep in range(plan.repetitions):
        rng = np.random.default_rng(plan.seed + rep)
        drug_parts = _parts(rng, ds.n, plan.folds, plan.setting != "S3", "drug")
        target_parts = _parts(rng, ds.m, plan.folds, plan.setting != "S2", "target")
        for (fd, dtest), (ft, ttest) in product(enumerate(drug_parts), enumerate(target_parts)):
            train = np.setdiff1d(all_drugs, dtest), np.setdiff1d(all_targets, ttest)
            out.append(Fold(plan.setting, rep, fd * len(target_parts) + ft, *train, dtest, ttest))
    return out


def aupr(scores, labels) -> float:
    """Area under the precision-recall curve, step-wise with tie grouping.

    Scores are swept descending; equal scores form one threshold step.
    The area is the sum over steps of (recall gain) x (precision at the
    step), which matches an explicit confusion-matrix sweep.
    """
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels, dtype=float).ravel()
    if s.shape != y.shape:
        raise ValueError(f"scores and labels differ in length: {s.shape} vs {y.shape}")
    if s.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    if not np.isin(np.unique(y), (0.0, 1.0)).all():
        raise ValueError("labels must be binary")
    positives = y.sum()
    if positives == 0:
        raise ValueError("AUPR undefined: no positive labels")
    order = np.argsort(-s, kind="stable")
    s = s[order]
    y = y[order]
    true_pos = np.cumsum(y)
    seen = np.arange(1, s.size + 1)
    # Last position of each tie group is one threshold step.
    ends = np.flatnonzero(np.diff(s) != 0)
    ends = np.append(ends, s.size - 1)
    precision = true_pos[ends] / seen[ends]
    recall = true_pos[ends] / positives
    return float(np.sum(np.diff(recall, prepend=0.0) * precision))


def _fold_scores(ds: DtiDataset, fold: Fold, model):
    """Score a fold's test block; returns ``(scores, block)``.

    Scores are drugs x targets. ``block`` is the ``np.ix_`` index of the
    pairs they score: on each side the test part, or all training
    entities where that part is empty (the side is not held out).
    """
    drugs = fold.test_drugs if fold.test_drugs.size else fold.train_drugs
    targets = fold.test_targets if fold.test_targets.size else fold.train_targets
    dp = ds.drug_sim[np.ix_(fold.test_drugs, fold.train_drugs)]
    tp = ds.target_sim[np.ix_(fold.test_targets, fold.train_targets)]
    if fold.setting == "S2":
        scores = model.predict_s2(dp)
    elif fold.setting == "S3":
        scores = model.predict_s3(tp).T
    else:
        scores = model.predict_s4(dp, tp)
    return scores, np.ix_(drugs, targets)


def run_cv(ds: DtiDataset, learner, plan: CvPlan, threads: int = 1) -> CvResult:
    """Fit on each fold's training block, score its test pairs, average AUPR."""
    folds = generate_folds(ds, plan)

    def run_one(fold):
        model = learner(subset(ds, fold.train_drugs, fold.train_targets))
        scores, block = _fold_scores(ds, fold, model)
        labels = ds.interactions[block]
        positives = int(labels.sum())
        value = aupr(scores.ravel(), labels.ravel()) if positives else math.nan
        return FoldResult(fold.repetition, fold.index, value, labels.size, positives)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, folds))
    else:
        results = [run_one(f) for f in folds]
    values = [r.aupr for r in results if not math.isnan(r.aupr)]
    mean = float(np.mean(values)) if values else math.nan
    return CvResult(plan.setting, tuple(results), mean)


def tune_hyperparameters(ds: DtiDataset, grid: ParamGrid, plan: CvPlan, inner_folds: int, factory=fit_wknn) -> dict:
    """Exhaustive grid search by mean CV AUPR on ``ds``; first cell wins ties.

    ``plan`` supplies the setting, seed, and repetition count; the fold
    count is replaced by ``inner_folds``. ``factory(ds, k, eta)`` builds
    the model under selection.
    """
    inner_plan = CvPlan(plan.setting, inner_folds, plan.repetitions, plan.seed)
    best = None
    best_mean = -math.inf
    for k, eta in grid.cells():
        result = run_cv(ds, lambda train: factory(train, k, eta), inner_plan)
        if best is None or (not math.isnan(result.mean_aupr) and result.mean_aupr > best_mean):
            best = {"k": k, "eta": eta}
            if not math.isnan(result.mean_aupr):
                best_mean = result.mean_aupr
    return best


def rank_novel(ds: DtiDataset, learner, setting: str, top_n: int, folds: int | None = None, seed: int = 0) -> list:
    """Top unobserved pairs by held-out score over one CV repetition.

    Every pair is scored exactly once (its own test fold); pairs with a
    known interaction are excluded; ties are broken by drug then target
    ID. Returns ``top_n`` tuples of (drug_id, target_id, score).
    """
    if top_n < 1:
        raise ValueError(f"top_n must be at least 1, got {top_n}")
    plan = CvPlan(setting, folds if folds is not None else OUTER_FOLDS[setting], repetitions=1, seed=seed)
    scores = np.full((ds.n, ds.m), np.nan)
    for fold in generate_folds(ds, plan):
        model = learner(subset(ds, fold.train_drugs, fold.train_targets))
        values, block = _fold_scores(ds, fold, model)
        scores[block] = values
    rows, cols = np.nonzero(ds.interactions == 0)
    ranked = sorted(
        ((ds.drug_ids[i], ds.target_ids[j], float(scores[i, j])) for i, j in zip(rows, cols)),
        key=lambda r: (-r[2], r[0], r[1]),
    )
    return ranked[:top_n]


def base_factory(method: str):
    """Model factory for a method name: 'wknn' or 'wknnir'."""
    try:
        return {"wknn": fit_wknn, "wknnir": fit_wknnir}[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; expected 'wknn' or 'wknnir'") from None


def ensemble_factory(method: str, q: int, ratio: float, strategy: SamplingStrategy, seed: int = 0):
    """Factory building a q-member ensemble of the given base method."""
    base = base_factory(method)

    def factory(ds, k, eta):
        return train_ensemble(ds, lambda sub: base(sub, k, eta), q, ratio, strategy, seed)

    return factory


def fixed_learner(factory, k: int, eta: float):
    """Learner with fixed parameters."""
    return lambda train: factory(train, k, eta)


def tuned_learner(factory, grid: ParamGrid, setting: str, inner_folds: int, seed: int = 0, final_factory=None):
    """Learner that grid-searches (k, eta) on its own training set.

    The inner CV runs one repetition of ``inner_folds`` folds with the
    ``factory`` model; ``final_factory`` (default: the same factory) is
    then fitted with the chosen parameters.
    """
    build = final_factory if final_factory is not None else factory

    def learner(train):
        plan = CvPlan(setting, inner_folds, repetitions=1, seed=seed)
        best = tune_hyperparameters(train, grid, plan, inner_folds, factory)
        return build(train, best["k"], best["eta"])

    return learner

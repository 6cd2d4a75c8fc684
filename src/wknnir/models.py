"""Weighted nearest-neighbor interaction predictors.

One fitted-model class over a training dataset: WkNNIR scores a query
pair by decay-weighted neighbor labels read from interaction matrices
completed from neighbor rows and columns, with the decay exponents in
the double-ring case rescaled by the local-imbalance ratio of the two
similarity spaces. WkNN is its special case with no recovery (the
original matrix serves all three settings) and zero local imbalance
(no rescaling).

Three inductive settings are supported, named by which side of the query
is new: S2 (new drug, training target), S3 (training drug, new target),
S4 (both new). A query with two training indices is the transductive
setting and is rejected. New entities are described by a similarity
profile against the training entities of their side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DtiDataset
from .imbalance import _clamped_report
from .neighbors import _check_count, neighbor_table, top_k

__all__ = [
    "WkNNIRModel",
    "fit_wknn",
    "fit_wknnir",
]

TRANSDUCTIVE_ERROR = "transductive setting unsupported: both query entities are training indices"

# Degenerate datasets can have zero local imbalance on one side; the ratio
# r = LI_a / LI_b is kept finite by flooring both sides first.
LI_FLOOR = 1e-6


def _query_part(value, size, side):
    """Classify one query side; returns (index, profile), one of them None (values checked by predict_s*)."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{side} query must be an index or a profile, got bool")
    if isinstance(value, (int, np.integer)):
        idx = int(value)
        if not 0 <= idx < size:
            raise IndexError(f"{side} index {idx} out of range for {size} training {side}s")
        return idx, None
    profile = np.asarray(value, dtype=float)
    if profile.ndim != 1 or profile.shape[0] != size:
        raise ValueError(f"{side} profile must have length {size}, got shape {profile.shape}")
    return None, profile


def _check_params(k, eta):
    _check_count(k, "k")
    if not np.isfinite(eta) or not 0 <= eta <= 1:
        raise ValueError(f"eta must be in [0, 1], got {eta!r}")


def _check_profiles(profiles, width, side):
    profiles = np.asarray(profiles, dtype=float)
    if profiles.ndim != 2 or profiles.shape[1] != width:
        raise ValueError(f"{side} profiles must be 2-D with {width} columns, got shape {profiles.shape}")
    # Phrased so that NaN fails too.
    if not np.all((profiles >= 0) & (profiles <= 1)):
        raise ValueError(f"{side} profile values outside [0, 1]")
    return profiles


def _decay_scores(idx, sims, labels, eta):
    """Single-ring scores from ranked neighbors -> (U, C).

    ``idx`` and ``sims`` are (U, k) neighbor indices and similarities,
    best first; ``labels`` is (L, C) over the neighbor candidates.
    score[u, c] = sum_a eta^a * s[u, a] * labels[idx[u, a], c] / sum_a s[u, a]
    with a running over ranks. Zero normalizer gives 0. This dense form
    serves ``predict_s2``/``predict_s3``, whose labels are recovered
    matrices; ``_recover_rows`` adds the same terms over the nonzeros only.
    """
    w = _rank_weights(sims, eta)
    num = np.zeros((idx.shape[0], labels.shape[1]))
    z = np.zeros(idx.shape[0])
    # num and z accumulate in the same rank order, so with eta <= 1 and
    # labels in [0, 1] num <= z holds exactly and no score exceeds 1.
    for a in range(idx.shape[1]):
        num += w[:, a][:, None] * labels[idx[:, a], :]
        z += sims[:, a]
    return _normalized(num, z[:, None])


def _rank_weights(sims, eta, r=1.0):
    """Neighbor weights ``sims[:, a] * eta^(a'/r - 1)`` for 1-based rank a'; r = 1 gives exponents 0, 1, ..., k-1."""
    return sims * eta ** (np.arange(1, sims.shape[1] + 1, dtype=float) / r - 1.0)


def _normalized(num, z):
    """``num / z`` into ``num``, with ``z`` broadcast against it; 0 where the normalizer is 0."""
    return np.divide(num, np.where(z > 0, z, 1.0), out=num)  # where z is 0 so is every weight, and num is +0.0


def _pair_grid_scores(d_idx, d_sims, t_idx, t_sims, labels, eta, r_drug, r_target):
    """Double-ring scores over the k x k grid of ranked drug and target neighbors -> (U, V).

    The decay exponent for drug rank i' and target rank j' (1-based) is
    i'/r_drug + j'/r_target - 2; the normalizer sums the raw similarity
    products and factorizes into the two per-side sums. That product can
    round below the numerator, so scores are clamped at 1.
    """
    wd = _rank_weights(d_sims, eta, r_drug)
    wt = _rank_weights(t_sims, eta, r_target)
    num = np.zeros((d_idx.shape[0], t_idx.shape[0]))
    for a in range(d_idx.shape[1]):
        rows = labels[d_idx[:, a], :]
        wda = wd[:, a][:, None]
        for b in range(t_idx.shape[1]):
            num += wda * wt[:, b][None, :] * rows[:, t_idx[:, b]]
    out = _normalized(num, d_sims.sum(axis=1)[:, None] * t_sims.sum(axis=1)[None, :])
    return np.minimum(out, 1.0, out=out)


class _NeighborPredictor:
    """Query plumbing over the fields of ``WkNNIRModel``.

    A new drug is ranked by drug similarity against ``y_target``, which
    target similarities recovered; a new target likewise against
    ``y_drug``; a new pair against ``y_joint``.
    """

    def predict_s2(self, drug_profiles) -> np.ndarray:
        """Score new drugs against every training target: (U, n) -> (U, m)."""
        profiles = _check_profiles(drug_profiles, self.dataset.n, "drug")
        return _decay_scores(*top_k(profiles, self.k), self.y_target, self.eta)

    def predict_s3(self, target_profiles) -> np.ndarray:
        """Score new targets against every training drug: (V, m) -> (V, n)."""
        profiles = _check_profiles(target_profiles, self.dataset.m, "target")
        return _decay_scores(*top_k(profiles, self.k), self.y_drug.T, self.eta)

    def predict_s4(self, drug_profiles, target_profiles) -> np.ndarray:
        """Score new drugs x new targets: (U, n), (V, m) -> (U, V)."""
        dp = _check_profiles(drug_profiles, self.dataset.n, "drug")
        tp = _check_profiles(target_profiles, self.dataset.m, "target")
        return _pair_grid_scores(*top_k(dp, self.k), *top_k(tp, self.k), self.y_joint, self.eta, self.r_drug, self.r_target)

    def predict(self, drug, target) -> float:
        """Score one drug-target pair.

        Each side is either a training index (int) or a similarity profile
        (1-D array over the training entities of that side). A pair of two
        training indices (transductive) is rejected.
        """
        di, dp = _query_part(drug, self.dataset.n, "drug")
        tj, tp = _query_part(target, self.dataset.m, "target")
        if di is not None and tj is not None:
            raise ValueError(TRANSDUCTIVE_ERROR)
        if tj is not None:
            return float(self.predict_s2(dp[None, :])[0, tj])
        if di is not None:
            return float(self.predict_s3(tp[None, :])[0, di])
        return float(self.predict_s4(dp[None, :], tp[None, :])[0, 0])


def _recover_rows(idx, sims, owner, other, width, eta, transpose=False):
    """Rebuild each row of binary labels from the rows of its ranked neighbors.

    The labels are n x ``width``: 1 at the pairs ``(owner, other)``, sorted
    by owner row, and 0 elsewhere. Row i becomes
    sum_a eta^a * sims[i, a] * labels[idx[i, a], :] / sum_a sims[i, a]
    over ranks a, for ``(idx, sims)`` as ``neighbor_table`` gives them. A row
    with no neighbor similarity (no neighbors, or all of similarity 0)
    recovers to zero; the max with Y in ``fit_wknnir`` keeps the original.
    With ``transpose`` the result is written transposed, C-ordered.

    Only the pairs are visited, each adding its neighbor weight times 1; a
    0 label would add +0.0 to a sum that starts at +0.0. One ``np.bincount``
    adds every term in input order, rank by rank and each cell at most once
    per rank, so the result is bit-identical to ``_decay_scores`` on dense labels.
    """
    n = idx.shape[0]
    start = np.searchsorted(owner, np.arange(n + 1))  # row h holds pairs start[h]:start[h + 1]
    h = idx.T.ravel()  # rank-major: every row's first neighbor, then every row's second, ...
    count = np.diff(start)[h]
    # Slot (a, u) holds row h = idx[u, a]: each pair e of row h adds one term to row u.
    e = np.arange(count.sum()) + np.repeat(start[h] - np.cumsum(count) + count, count)
    u = np.repeat(np.tile(np.arange(n), idx.shape[1]), count)
    cells = other[e] * n + u if transpose else u * width + other[e]
    terms = np.repeat(_rank_weights(sims, eta).T.ravel(), count)
    num = np.bincount(cells, terms, minlength=n * width).astype(float, copy=False)  # int64 when there are no terms
    z = np.zeros(n)
    for a in range(idx.shape[1]):
        z += sims[:, a]
    if transpose:
        return _normalized(num.reshape(width, n), z)
    return _normalized(num.reshape(n, width), z[:, None])


@dataclass(frozen=True, eq=False)
class WkNNIRModel(_NeighborPredictor):
    """WkNN over recovered interactions with imbalance-scaled S4 decay.

    The recovered matrices are element-wise >= the original: ``y_drug``
    is rebuilt row-wise from drug neighbors, ``y_target`` column-wise
    from target neighbors, ``y_joint`` blends the two raw recoveries
    weighted by (1 - LI) per side; all three are then maxed with the
    original matrix so known interactions stay at 1. A WkNN fit has the
    original matrix as all three and zero LI, so r_drug = r_target = 1.
    """

    dataset: DtiDataset
    k: int
    eta: float
    y_drug: np.ndarray
    y_target: np.ndarray
    y_joint: np.ndarray
    li_drug: float
    li_target: float

    def __post_init__(self):
        for name in ("y_drug", "y_target", "y_joint"):
            # A read-only view: the caller's array stays writable, and nothing is copied.
            arr = np.asarray(getattr(self, name), dtype=float).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def r_drug(self) -> float:
        return min(1.0, max(self.li_drug, LI_FLOOR) / max(self.li_target, LI_FLOOR))

    @property
    def r_target(self) -> float:
        return min(1.0, max(self.li_target, LI_FLOOR) / max(self.li_drug, LI_FLOOR))


def fit_wknn(ds: DtiDataset, k: int, eta: float) -> WkNNIRModel:
    """Validate parameters and bind them to the dataset: no recovery, zero LI."""
    _check_params(k, eta)
    Y = ds.interactions
    return WkNNIRModel(ds, int(k), float(eta), Y, Y, Y, 0.0, 0.0)


def fit_wknnir(ds: DtiDataset, k: int, eta: float) -> WkNNIRModel:
    """Complete the interaction matrix three ways at one (k, eta)."""
    _check_params(k, eta)
    Y = ds.interactions
    rows, cols = ds._pairs
    by_col = np.argsort(cols, kind="stable")
    y_drug_raw = _recover_rows(*neighbor_table(ds.drug_sim, k), rows, cols, ds.m, eta)
    y_target_raw = _recover_rows(*neighbor_table(ds.target_sim, k), cols[by_col], rows[by_col], ds.n, eta, transpose=True)
    report = _clamped_report(ds, k)
    # Without imbalance evidence both sides count as balanced.
    li_drug, li_target = (0.0, 0.0) if report is None else (report.li_drug, report.li_target)
    y_joint_raw = ((1.0 - li_drug) * y_drug_raw + (1.0 - li_target) * y_target_raw) / 2.0
    return WkNNIRModel(
        ds,
        int(k),
        float(eta),
        y_drug=np.maximum(y_drug_raw, Y, out=y_drug_raw),
        y_target=np.maximum(y_target_raw, Y, out=y_target_raw),
        y_joint=np.maximum(y_joint_raw, Y, out=y_joint_raw),
        li_drug=li_drug,
        li_target=li_target,
    )

"""Weighted nearest-neighbor interaction predictors.

Two lazy learners over a training dataset. The baseline scores a query
pair by decay-weighted neighbor labels; the recovery variant first
completes the interaction matrix from neighbor rows and columns, then
predicts against the completed matrix, with the decay exponents in the
double-ring case rescaled by the local-imbalance ratio of the two
similarity spaces.

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
    "PairQuery",
    "WkNNModel",
    "WkNNIRModel",
    "RecoverySet",
    "fit_wknn",
    "build_recovery",
    "fit_wknnir",
]

TRANSDUCTIVE_ERROR = "transductive setting unsupported: both query entities are training indices"

# Degenerate datasets can have zero local imbalance on one side; the ratio
# r = LI_a / LI_b is kept finite by flooring both sides first.
LI_FLOOR = 1e-6


@dataclass(frozen=True)
class PairQuery:
    """One drug-target query.

    Each side is either a training index (int) or a similarity profile
    (1-D array over the training entities of that side).
    """

    drug: object
    target: object


def _query_part(value, size, side):
    """Classify one query side; returns (index, profile), one of them None."""
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
    _check_unit_range(profile, side)
    return None, profile


def _check_params(k, eta):
    _check_count(k, "k")
    if not np.isfinite(eta) or not 0 <= eta <= 1:
        raise ValueError(f"eta must be in [0, 1], got {eta!r}")


def _check_unit_range(values, side):
    # Phrased so that NaN fails too.
    if not np.all((values >= 0) & (values <= 1)):
        raise ValueError(f"{side} profile values outside [0, 1]")


def _check_profiles(profiles, width, side):
    profiles = np.asarray(profiles, dtype=float)
    if profiles.ndim != 2 or profiles.shape[1] != width:
        raise ValueError(f"{side} profiles must be 2-D with {width} columns, got shape {profiles.shape}")
    _check_unit_range(profiles, side)
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
    decay = eta ** np.arange(idx.shape[1], dtype=float)
    num = np.zeros((idx.shape[0], labels.shape[1]))
    z = np.zeros(idx.shape[0])
    # num and z accumulate in the same rank order, so with eta <= 1 and
    # labels in [0, 1] num <= z holds exactly and no score exceeds 1.
    for a in range(idx.shape[1]):
        num += (decay[a] * sims[:, a])[:, None] * labels[idx[:, a], :]
        z += sims[:, a]
    return _normalized(num, z)


def _normalized(num, z):
    """``num / z`` row by row, 0 where the normalizer is 0."""
    z = z[:, None]
    out = np.zeros_like(num)
    np.divide(num, z, out=out, where=z > 0)
    return out


def _pair_grid_scores(drug_profiles, target_profiles, labels, k, eta, r_drug, r_target):
    """Double-ring scores over the k x k neighbor grid -> (U, V).

    The decay exponent for drug rank i' and target rank j' (1-based) is
    i'/r_drug + j'/r_target - 2; the normalizer sums the raw similarity
    products and factorizes into the two per-side sums. That product can
    round below the numerator, so scores are clamped at 1.
    """
    d_idx, d_sims = top_k(drug_profiles, k)
    t_idx, t_sims = top_k(target_profiles, k)
    wd = d_sims * eta ** (np.arange(1, d_idx.shape[1] + 1, dtype=float) / r_drug - 1.0)
    wt = t_sims * eta ** (np.arange(1, t_idx.shape[1] + 1, dtype=float) / r_target - 1.0)
    num = np.zeros((d_idx.shape[0], t_idx.shape[0]))
    for a in range(d_idx.shape[1]):
        rows = labels[d_idx[:, a], :]
        wda = wd[:, a][:, None]
        for b in range(t_idx.shape[1]):
            num += wda * wt[:, b][None, :] * rows[:, t_idx[:, b]]
    z = d_sims.sum(axis=1)[:, None] * t_sims.sum(axis=1)[None, :]
    out = np.zeros_like(num)
    np.divide(num, z, out=out, where=z > 0)
    return np.minimum(out, 1.0, out=out)


class _NeighborPredictor:
    """Shared query plumbing.

    Subclasses supply ``_labels()``, the (S2, S3, S4) label matrices, and
    the S4 decay rescalers ``r_drug`` and ``r_target``.
    """

    def predict_s2(self, drug_profiles) -> np.ndarray:
        """Score new drugs against every training target: (U, n) -> (U, m)."""
        profiles = _check_profiles(drug_profiles, self.dataset.n, "drug")
        return _decay_scores(*top_k(profiles, self.k), self._labels()[0], self.eta)

    def predict_s3(self, target_profiles) -> np.ndarray:
        """Score new targets against every training drug: (V, m) -> (V, n)."""
        profiles = _check_profiles(target_profiles, self.dataset.m, "target")
        return _decay_scores(*top_k(profiles, self.k), self._labels()[1].T, self.eta)

    def predict_s4(self, drug_profiles, target_profiles) -> np.ndarray:
        """Score new drugs x new targets: (U, n), (V, m) -> (U, V)."""
        dp = _check_profiles(drug_profiles, self.dataset.n, "drug")
        tp = _check_profiles(target_profiles, self.dataset.m, "target")
        return _pair_grid_scores(dp, tp, self._labels()[2], self.k, self.eta, self.r_drug, self.r_target)

    def predict(self, q: PairQuery) -> float:
        """Score one pair; a pair of two training indices (transductive) is rejected."""
        di, dp = _query_part(q.drug, self.dataset.n, "drug")
        tj, tp = _query_part(q.target, self.dataset.m, "target")
        if di is not None and tj is not None:
            raise ValueError(TRANSDUCTIVE_ERROR)
        if tj is not None:
            return float(self.predict_s2(dp[None, :])[0, tj])
        if di is not None:
            return float(self.predict_s3(tp[None, :])[0, di])
        return float(self.predict_s4(dp[None, :], tp[None, :])[0, 0])


@dataclass(frozen=True, eq=False)
class WkNNModel(_NeighborPredictor):
    """Lazy weighted-kNN predictor; fitting just validates and stores."""

    dataset: DtiDataset
    k: int
    eta: float
    # Class constants, not fields: the baseline keeps the plain decay in S4.
    r_drug = r_target = 1.0

    def _labels(self):
        y = self.dataset.interactions
        return y, y, y


@dataclass(frozen=True, eq=False)
class RecoverySet:
    """Completed interaction matrices, element-wise >= the original.

    ``y_drug`` is rebuilt row-wise from drug neighbors, ``y_target``
    column-wise from target neighbors, ``y_joint`` blends the two raw
    recoveries weighted by (1 - LI) per side; all three are then maxed
    with the original matrix so known interactions stay at 1.
    """

    y_drug: np.ndarray
    y_target: np.ndarray
    y_joint: np.ndarray
    li_drug: float
    li_target: float

    def __post_init__(self):
        for name in ("y_drug", "y_target", "y_joint"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _recover_rows(sim, labels, owner, other, k, eta):
    """Rebuild each row of ``labels`` from its k nearest rows under ``sim``.

    Row i becomes sum_h eta^(h'-1) * sim[i, h] * labels[h, :] / sum_h sim[i, h]
    over the self-excluded neighbors h of i. A zero normalizer gives a
    zero row and a lone entity keeps its row; either way the max with Y
    in ``build_recovery`` leaves the original.

    ``(owner, other)`` are the nonzero entries of ``labels``, sorted by
    owner row, and only they are visited. A zero label adds a signed zero
    to the dense sum, which starts at +0.0 and so never changes by it:
    with ranks added in order, the result is bit-identical to
    ``_decay_scores`` on the dense labels. That holds for finite
    similarities; ``load_dataset`` rejects others, so only a hand-built
    ``DtiDataset`` could differ (inf * 0.0 is NaN in the dense sum).
    """
    n = sim.shape[0]
    if n < 2:
        return np.array(labels, dtype=float)
    idx, sims = neighbor_table(sim, k)
    values = labels[owner, other]
    start = np.searchsorted(owner, np.arange(n + 1))  # row h holds entries start[h]:start[h + 1]
    sizes = np.diff(start)
    decay = eta ** np.arange(idx.shape[1], dtype=float)
    num = np.zeros((n, labels.shape[1]))
    z = np.zeros(n)
    for a in range(idx.shape[1]):
        h = idx[:, a]
        count = sizes[h]
        # Entry e of row h[u] goes to row u; each (u, column) once per rank.
        u = np.repeat(np.arange(n), count)
        e = np.arange(u.size) + np.repeat(start[h] - np.cumsum(count) + count, count)
        num[u, other[e]] += (decay[a] * sims[:, a])[u] * values[e]
        z += sims[:, a]
    return _normalized(num, z)


def build_recovery(ds: DtiDataset, k: int, eta: float) -> RecoverySet:
    """Complete the interaction matrix three ways at one (k, eta)."""
    _check_params(k, eta)
    Y = ds.interactions
    rows, cols = np.nonzero(Y != 0)  # the same pairs as np.nonzero(Y), found about twice as fast
    by_col = np.argsort(cols, kind="stable")
    y_drug_raw = _recover_rows(ds.drug_sim, Y, rows, cols, k, eta)
    y_target_raw = _recover_rows(ds.target_sim, Y.T, cols[by_col], rows[by_col], k, eta).T
    report = _clamped_report(ds, k)
    # Without imbalance evidence both sides count as balanced.
    li_drug, li_target = (0.0, 0.0) if report is None else (report.li_drug, report.li_target)
    y_joint_raw = ((1.0 - li_drug) * y_drug_raw + (1.0 - li_target) * y_target_raw) / 2.0
    return RecoverySet(
        y_drug=np.maximum(y_drug_raw, Y),
        y_target=np.maximum(y_target_raw, Y),
        y_joint=np.maximum(y_joint_raw, Y),
        li_drug=li_drug,
        li_target=li_target,
    )


@dataclass(frozen=True, eq=False)
class WkNNIRModel(_NeighborPredictor):
    """WkNN over recovered interactions with imbalance-scaled S4 decay."""

    dataset: DtiDataset
    k: int
    eta: float
    recovery: RecoverySet
    r_drug: float
    r_target: float

    def _labels(self):
        # New drug: target similarities did the recovery, drug similarities rank.
        rec = self.recovery
        return rec.y_target, rec.y_drug, rec.y_joint


def fit_wknn(ds: DtiDataset, k: int, eta: float) -> WkNNModel:
    """Validate parameters and bind them to the dataset; no training."""
    _check_params(k, eta)
    return WkNNModel(ds, int(k), float(eta))


def fit_wknnir(ds: DtiDataset, k: int, eta: float) -> WkNNIRModel:
    """Precompute the recovery set and the per-side decay rescalers."""
    recovery = build_recovery(ds, k, eta)
    li_drug = max(recovery.li_drug, LI_FLOOR)
    li_target = max(recovery.li_target, LI_FLOOR)
    return WkNNIRModel(
        ds,
        int(k),
        float(eta),
        recovery,
        r_drug=min(1.0, li_drug / li_target),
        r_target=min(1.0, li_target / li_drug),
    )

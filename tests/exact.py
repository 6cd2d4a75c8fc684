"""The exact referee: every formula of the method in exact arithmetic.

Float inputs are read as the rationals they are; ranking is a full
``sorted`` by (-value, index), NaN last; sums and quotients are
``Fraction``s, and the S4 decay at a fractional exponent is a 50-digit
``decimal`` power. ``Model`` is a wknn or wknnir fit (the recoveries,
``y_joint``, LI, r and S2/S3/S4), ``imbalance`` adds the importances,
``sampling_weights`` the ``els`` weights, ``Ensemble`` the members' average
with its fallback for uncovered entities, ``aupr`` the area.

``check`` holds each float within ``BOUNDS[formula]`` ulps of its exact
value (the ulp of the nearest double), and at +0.0 where that is 0. Each
bound rounds up the largest distance measured over every case the tests
run (numpy 2.4, x86-64, the same without AVX-512), given here in brackets;
never raise one to pass a test: recovery (y_drug, y_target) 3 (2.74),
joint (y_joint) 4 (3.92), li (LI, pair imbalance) 2 (1.95), importance 1
(0.67), r 2 (1.09), s2s3 4 (3.27), s4 8 (7.86), ensemble 5 (4.17), els 4
(3.15), aupr 2 (1.68). A tier-1 run prints ``WORST``, the largest distance
seen per formula; a change that moves output bits on purpose quotes it
before and after.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import Context, Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

BOUNDS = {"recovery": 3, "joint": 4, "li": 2, "importance": 1, "r": 2, "s2s3": 4, "s4": 8, "ensemble": 5, "els": 4, "aupr": 2}
WORST = {}
LI_FLOOR = Fraction(1e-6)  # under each side's LI in the rank scales
DIGITS = Context(prec=50)
Imbalance = namedtuple("Imbalance", "li_drug li_target drug_importance target_importance drug_pair target_pair")


def check(got, exact, formula):
    """Assert each float of ``got`` within the formula's bound of the exact value at its place."""
    got, want = np.asarray(got, dtype=float), np.array(exact, dtype=object)
    assert got.shape == want.shape, f"{formula}: shape {got.shape}, exact {want.shape}"
    for g, w in zip(got.ravel().tolist(), want.ravel().tolist()):
        if w == 0:
            assert g == 0 and math.copysign(1.0, g) > 0, f"{formula}: {g!r} where the exact value is 0"
            continue
        ulps = abs(Fraction(g) - w) / Fraction(math.ulp(float(w)))
        assert ulps <= BOUNDS[formula], f"{formula}: {g!r} is {float(ulps):.3g} ulp from {float(w)!r}"
        WORST[formula] = max(WORST.get(formula, 0.0), float(ulps))


def rank(values, k, exclude=None):
    """The k best indices, best first: descending value, ties to the lower index, NaN last."""
    order = sorted((math.isnan(v), 0.0 if math.isnan(v) else -v, i) for i, v in enumerate(values) if i != exclude)
    return [i for _, _, i in order[:k]]


def _rows(matrix):
    return np.asarray(matrix, dtype=float).tolist()


def _transpose(matrix):
    return [list(col) for col in zip(*matrix)]


def _weights(profile, k, eta, exclude=None):
    """(h, eta^a s_h / sum of s) for the ranked neighbors h, a the 0-based rank; [] without neighbor similarity."""
    picks = rank(profile, k, exclude)
    z = sum(Fraction(profile[h]) for h in picks)
    return [(h, eta**a * Fraction(profile[h]) / z) for a, h in enumerate(picks)] if z else []


def _one_side(profiles, labels, k, eta, exclude=False):
    """Row u, column c: sum_a eta^a s_a labels[h_a][c] / sum_a s_a; with ``exclude`` row u never ranks entity u."""
    weights = [_weights(p, k, eta, u if exclude else None) for u, p in enumerate(_rows(profiles))]
    return [[sum(w * labels[h][c] for h, w in row) for c in range(len(labels[0]))] for row in weights]


def _decay(eta, exponent):
    """eta ** exponent for a rational exponent >= 0: exact where it can be, else to 50 digits."""
    if exponent.denominator == 1 or eta in (0, 1):
        return eta ** math.ceil(exponent)  # for every e > 0, 0 ** e is 0 and 1 ** e is 1
    return Fraction(DIGITS.power(Decimal(float(eta)), DIGITS.divide(exponent.numerator, exponent.denominator)))


def imbalance(ds, k):
    """The pair imbalance at each interacting pair (i, j), the share of the k nearest drugs of i (targets of j)
    with label 0 there; LI, its mean per side; the importances, its sums per entity."""
    Y = np.asarray(ds.interactions).astype(int).tolist()
    pairs = [(i, j) for i, row in enumerate(Y) for j, y in enumerate(row) if y]
    drugs = [rank(row, k, i) for i, row in enumerate(_rows(ds.drug_sim))]
    targets = [rank(row, k, j) for j, row in enumerate(_rows(ds.target_sim))]
    drug_pair = {(i, j): Fraction(sum(Y[h][j] == 0 for h in drugs[i]), k) for i, j in pairs}
    target_pair = {(i, j): Fraction(sum(Y[i][h] == 0 for h in targets[j]), k) for i, j in pairs}
    drug_importance = [sum(v for (i, _), v in drug_pair.items() if i == row) for row in range(len(Y))]
    target_importance = [sum(v for (_, j), v in target_pair.items() if j == col) for col in range(len(Y[0]))]
    li = sum(drug_pair.values()) / len(pairs), sum(target_pair.values()) / len(pairs)
    return Imbalance(*li, drug_importance, target_importance, drug_pair, target_pair)


def clamped_imbalance(ds, k):
    """``imbalance`` at k clamped to both sides; None without evidence (a side of one, or no interactions)."""
    n, m = np.shape(ds.interactions)
    return imbalance(ds, min(k, n - 1, m - 1)) if n > 1 and m > 1 and np.any(ds.interactions) else None


class Model:
    """The exact wknnir fit (``recover``) or wknn fit of a dataset at (k, eta), and its scores."""

    def __init__(self, ds, k, eta, recover=True):
        self.k, self.eta = k, Fraction(eta)
        Y = [[Fraction(y) for y in row] for row in _rows(ds.interactions)]
        self.y_drug = self.y_target = self.y_joint = Y
        report = clamped_imbalance(ds, k) if recover else None
        self.li_drug, self.li_target = (report.li_drug, report.li_target) if report else (Fraction(0), Fraction(0))
        if recover:
            drug = _one_side(ds.drug_sim, Y, k, self.eta, exclude=True)
            target = _transpose(_one_side(ds.target_sim, _transpose(Y), k, self.eta, exclude=True))
            wd, wt = 1 - self.li_drug, 1 - self.li_target
            joint = [[(wd * d + wt * t) / 2 for d, t in zip(*rows)] for rows in zip(drug, target)]
            self.y_drug, self.y_target, self.y_joint = ([list(map(max, a, y)) for a, y in zip(x, Y)] for x in (drug, target, joint))
        drug_li, target_li = max(self.li_drug, LI_FLOOR), max(self.li_target, LI_FLOOR)
        self.r_drug, self.r_target = min(Fraction(1), drug_li / target_li), min(Fraction(1), target_li / drug_li)

    def predict_s2(self, drug_profiles):
        return _one_side(drug_profiles, self.y_target, self.k, self.eta)

    def predict_s3(self, target_profiles):
        return _one_side(target_profiles, _transpose(self.y_drug), self.k, self.eta)

    def predict_s4(self, drug_profiles, target_profiles):
        """sum_ab eta^(a/r_d + b/r_t - 2) s_a s_b y_joint[h_a][g_b] / (sum_a s_a)(sum_b s_b), a and b 1-based ranks."""
        drugs, targets = ([_weights(p, self.k, 1) for p in _rows(side)] for side in (drug_profiles, target_profiles))
        ranks = range(1, max(map(len, drugs + targets), default=0) + 1)
        decay = [[_decay(self.eta, a / self.r_drug + b / self.r_target - 2) for b in ranks] for a in ranks]

        def score(d, t):
            return sum(decay[a][b] * wd * wt * self.y_joint[h][g] for a, (h, wd) in enumerate(d) for b, (g, wt) in enumerate(t))

        return [[score(d, t) for t in targets] for d in drugs]


def sampling_weights(ds, kind, sigma, k):
    """The ``els`` weights of each side: uniform, or (sigma + w) / (size * sigma + sum w) over counts or importances."""
    Y = _rows(ds.interactions)
    report = clamped_imbalance(ds, k) if kind == "local" else None
    counts = [[sum(map(Fraction, row)) for row in side] for side in (Y, _transpose(Y))]
    sides = (report.drug_importance, report.target_importance) if report else counts
    sigma, out = Fraction(sigma), []
    for w in sides:
        total = len(w) * sigma + sum(w)
        out.append([(sigma + x) / total for x in w] if kind != "uniform" and total else [Fraction(1, len(w))] * len(w))
    return tuple(out)


class Ensemble:
    """Exact members on each of ``members``' ``drug_subset`` x ``target_subset``, averaged per entity."""

    def __init__(self, ds, members, k, eta, recover=True):
        self.ds, self.members = ds, []
        for d, t in ((list(mem.drug_subset), list(mem.target_subset)) for mem in members):
            sub = SimpleNamespace(
                drug_sim=ds.drug_sim[np.ix_(d, d)], target_sim=ds.target_sim[np.ix_(t, t)], interactions=ds.interactions[np.ix_(d, t)]
            )
            self.members.append((d, t, Model(sub, k, eta, recover)))

    def _selective(self, profiles, new_drugs):
        """Per answered entity, the mean over the members that hold it; one that no member holds is scored as S4."""
        sim = self.ds.target_sim if new_drugs else self.ds.drug_sim
        answers = [[] for _ in sim]
        for d, t, model in self.members:
            query, answered = (d, t) if new_drugs else (t, d)
            scores = (model.predict_s2 if new_drugs else model.predict_s3)(profiles[:, query])
            for c, column in zip(answered, _transpose(scores)):
                answers[c].append(column)

        def fallback(row):
            return _transpose(self.predict_s4(profiles, row))[0] if new_drugs else self.predict_s4(row, profiles)[0]

        return _transpose([[sum(v) / len(a) for v in zip(*a)] if a else fallback(sim[[c]]) for c, a in enumerate(answers)])

    def predict_s2(self, drug_profiles):
        return self._selective(np.asarray(drug_profiles, dtype=float), True)

    def predict_s3(self, target_profiles):
        return self._selective(np.asarray(target_profiles, dtype=float), False)

    def predict_s4(self, drug_profiles, target_profiles):
        dp, tp = np.asarray(drug_profiles, dtype=float), np.asarray(target_profiles, dtype=float)
        scores = [model.predict_s4(dp[:, d], tp[:, t]) for d, t, model in self.members]
        return [[sum(v) / len(scores) for v in zip(*rows)] for rows in zip(*scores)]


def aupr(scores, labels):
    """sum over distinct scores t, descending, of (recall gain) x (precision) at the cut score >= t."""
    pairs = list(zip(np.ravel(scores).tolist(), np.ravel(labels).astype(int).tolist()))
    positives, area, before = sum(y for _, y in pairs), Fraction(0), 0
    for t in sorted({s for s, _ in pairs}, reverse=True):
        hits, seen = sum(y for s, y in pairs if s >= t), sum(s >= t for s, _ in pairs)
        area += Fraction(hits - before, positives) * Fraction(hits, seen)
        before = hits
    return area

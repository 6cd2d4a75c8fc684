"""Predictors against naive loop oracles, plus bounds/reduction properties."""

import numpy as np
import pytest

from wknnir import (
    CvPlan,
    DtiDataset,
    WkNNIRModel,
    fit_wknn,
    fit_wknnir,
    run_cv,
    subset,
)
from wknnir import models
from wknnir.imbalance import _clamped_report
from wknnir.models import _decay_scores, _normalized, _pair_grid_scores, _recover_rows
from wknnir.neighbors import neighbor_table, top_k
from conftest import load_datagen, make_dataset, random_dataset, varied_dataset


def oracle_rank(profile, k):
    order = sorted(range(len(profile)), key=lambda i: (-profile[i], i))
    return order[: min(k, len(profile))]


def oracle_one_side(labels, profile, col, k, eta):
    """Single-ring score with explicit rank loop; labels indexed [nbr, col]."""
    nbr = oracle_rank(profile, k)
    num = sum(eta**rank * profile[i] * labels[i][col] for rank, i in enumerate(nbr))
    z = sum(profile[i] for i in nbr)
    return num / z if z > 0 else 0.0


def oracle_pair_grid(labels, dprof, tprof, k, eta, r_drug=1.0, r_target=1.0):
    nd = oracle_rank(dprof, k)
    nt = oracle_rank(tprof, k)
    num = 0.0
    z = 0.0
    for a, i in enumerate(nd):
        for b, j in enumerate(nt):
            num += eta ** ((a + 1) / r_drug + (b + 1) / r_target - 2) * dprof[i] * tprof[j] * labels[i][j]
            z += dprof[i] * tprof[j]
    return num / z if z > 0 else 0.0


def oracle_recover_rows(sim, Y, k, eta):
    n, m = Y.shape
    out = Y.astype(float).copy()
    for i in range(n):
        nbr = sorted((h for h in range(n) if h != i), key=lambda h: (-sim[i, h], h))[: min(k, n - 1)]
        z = sum(sim[i, h] for h in nbr)
        if z > 0:
            for j in range(m):
                out[i, j] = sum(eta**rank * sim[i, h] * Y[h, j] for rank, h in enumerate(nbr)) / z
    return out


def dense_recovery(ds, k, eta, lone_keeps_labels=False):
    """``fit_wknnir``'s recovery as first written: every label, zero or not, goes
    through the dense kernel, the target side on ``Y.T``. With
    ``lone_keeps_labels`` a side of one entity keeps its labels instead of
    recovering to zero from its empty neighborhood."""

    def rows(sim, labels):
        if lone_keeps_labels and sim.shape[0] < 2:
            return np.array(labels, dtype=float)
        return _decay_scores(*neighbor_table(sim, k), labels, eta)

    Y = ds.interactions
    y_drug_raw = rows(ds.drug_sim, Y)
    y_target_raw = rows(ds.target_sim, Y.T).T
    report = _clamped_report(ds, k)
    li_drug, li_target = (0.0, 0.0) if report is None else (report.li_drug, report.li_target)
    y_joint_raw = ((1.0 - li_drug) * y_drug_raw + (1.0 - li_target) * y_target_raw) / 2.0
    return np.maximum(y_drug_raw, Y), np.maximum(y_target_raw, Y), np.maximum(y_joint_raw, Y)


def guarded_divide(num, z):
    """Zero-safe divide by mask, the reference for ``_normalized``: ``num / z`` where z > 0, +0.0 elsewhere."""
    out = np.zeros_like(num)
    np.divide(num, z, out=out, where=z > 0)
    return out


def zero_heavy(rng, shape):
    """Values in [0, 1) with all-zero rows, negative zeros and rows so small that products underflow to 0."""
    a = rng.random(shape)
    a[rng.random(shape) < 0.3] = -0.0
    a[rng.random(shape[0]) < 0.3] = 0.0
    a[rng.random(shape[0]) < 0.2] *= 1e-170
    return a


class TestNormalized:
    def test_bit_identical_to_guarded_divide(self, monkeypatch):
        # Where a normalizer is 0 every weight is 0, so the numerator is the
        # +0.0 its sum started from and dividing it by 1 gives the same bytes.
        zero_normalizers = 0

        def checked(num, z):
            nonlocal zero_normalizers
            zero_normalizers += int(np.sum(z <= 0))
            want = guarded_divide(num, z)  # first: _normalized divides num in place
            got = _normalized(num, z)
            assert got.tobytes() == want.tobytes()
            return got

        monkeypatch.setattr(models, "_normalized", checked)
        rng = np.random.default_rng(41)
        for _ in range(150):
            u, v, n, m = (int(x) for x in rng.integers(1, 9, size=4))
            k, eta = int(rng.integers(1, 6)), float(rng.choice([0.0, 0.5, 1.0, rng.random()]))
            labels = zero_heavy(rng, (n, m))
            d_table, t_table = top_k(zero_heavy(rng, (u, n)), k), top_k(zero_heavy(rng, (v, m)), k)
            _decay_scores(*d_table, labels, eta)
            _decay_scores(*t_table, labels.T, eta)
            _pair_grid_scores(*d_table, *t_table, labels, eta, rng.random(), 1.0)
            fit_wknnir(varied_dataset(rng), k, eta)
        assert zero_normalizers > 1000


class TestFitValidation:
    def test_fit_echoes_params(self, f1):
        model = fit_wknn(f1, 2, 0.5)
        assert (model.k, model.eta) == (2, 0.5)

    @pytest.mark.parametrize("k,eta", [(0, 0.5), (-1, 0.5), (2, 1.2), (2, -0.1), (1.5, 0.5), (True, 0.5)])
    def test_bad_params_rejected(self, f1, k, eta):
        with pytest.raises(ValueError):
            fit_wknn(f1, k, eta)
        with pytest.raises(ValueError):
            fit_wknnir(f1, k, eta)


class TestWkNNPredict:
    def test_f1_hand_value(self, f1):
        model = fit_wknn(f1, 2, 0.5)
        score = model.predict(np.array([0.8, 0.4, 0.0]), 0)
        np.testing.assert_allclose(score, (1 * 0.8 * 1 + 0.5 * 0.4 * 0) / (0.8 + 0.4))

    def test_k1_nearest_positive_scores_one(self, f1):
        model = fit_wknn(f1, 1, 0.3)
        assert model.predict(np.array([0.8, 0.4, 0.0]), 0) == 1.0

    def test_zero_profile_scores_zero(self, f1):
        model = fit_wknn(f1, 2, 0.5)
        assert model.predict(np.zeros(3), 0) == 0.0
        assert model.predict(np.zeros(3), np.zeros(2)) == 0.0

    def test_transductive_rejected(self, f1):
        model = fit_wknn(f1, 2, 0.5)
        with pytest.raises(ValueError, match="transductive"):
            model.predict(0, 1)

    def test_bad_profiles_rejected(self, f1):
        model = fit_wknn(f1, 2, 0.5)
        with pytest.raises(ValueError, match="length"):
            model.predict(np.array([0.8, 0.4]), 0)
        with pytest.raises(ValueError, match="outside"):
            model.predict(np.array([0.8, 0.4, 1.3]), 0)
        with pytest.raises(IndexError):
            model.predict(np.array([0.8, 0.4, 0.0]), 7)

    @pytest.mark.parametrize("query", [(True, np.array([0.5, 0.2])), (np.zeros(3), np.bool_(False))])
    def test_bool_query_side_rejected(self, f1, query):
        # bool is an int subclass; it must not pass for a training index.
        with pytest.raises(TypeError, match="got bool"):
            fit_wknn(f1, 2, 0.5).predict(*query)

    def test_nan_profiles_rejected(self, f1):
        model = fit_wknn(f1, 2, 0.5)
        with pytest.raises(ValueError, match="drug profile values outside"):
            model.predict(np.array([0.8, np.nan, 0.0]), 0)
        with pytest.raises(ValueError, match="target profile values outside"):
            model.predict_s3(np.array([[0.5, 0.2], [np.nan, 0.1]]))

    def test_matches_oracle_all_settings(self):
        rng = np.random.default_rng(17)
        for seed in range(30):
            ds = random_dataset(8, 6, seed)
            k = int(rng.integers(1, 7))
            eta = float(rng.integers(0, 11)) / 10
            model = fit_wknn(ds, k, eta)
            Y = ds.interactions
            dprof = rng.random(8)
            tprof = rng.random(6)
            j = int(rng.integers(6))
            i = int(rng.integers(8))
            s2 = model.predict(dprof, j)
            np.testing.assert_allclose(s2, oracle_one_side(Y, dprof, j, k, eta), atol=1e-12)
            s3 = model.predict(i, tprof)
            np.testing.assert_allclose(s3, oracle_one_side(Y.T, tprof, i, k, eta), atol=1e-12)
            s4 = model.predict(dprof, tprof)
            np.testing.assert_allclose(s4, oracle_pair_grid(Y, dprof, tprof, k, eta), atol=1e-12)

    def test_s4_k1_equals_nearest_entry(self):
        ds = random_dataset(6, 5, 3)
        model = fit_wknn(ds, 1, 0.4)
        rng = np.random.default_rng(8)
        dprof = rng.random(6) * 0.9 + 0.05
        tprof = rng.random(5) * 0.9 + 0.05
        i = oracle_rank(dprof, 1)[0]
        j = oracle_rank(tprof, 1)[0]
        np.testing.assert_allclose(model.predict(dprof, tprof), ds.interactions[i, j], atol=1e-12)

    def test_eta_one_all_ones_column_scores_one(self):
        ds = make_dataset(
            [[1.0, 0.7, 0.3], [0.7, 1.0, 0.6], [0.3, 0.6, 1.0]],
            [[1.0, 0.4], [0.4, 1.0]],
            [[1, 0], [1, 1], [1, 0]],
        )
        model = fit_wknn(ds, 3, 1.0)
        assert model.predict(np.array([0.5, 0.2, 0.9]), 0) == 1.0

    def test_batch_agrees_with_scalar(self):
        ds = random_dataset(7, 5, 9)
        model = fit_wknn(ds, 3, 0.6)
        rng = np.random.default_rng(2)
        dp = rng.random((4, 7))
        tp = rng.random((3, 5))
        s2 = model.predict_s2(dp)
        s3 = model.predict_s3(tp)
        s4 = model.predict_s4(dp, tp)
        for u in range(4):
            for v in range(5):
                assert s2[u, v] == model.predict(dp[u], v)
        for v in range(3):
            for i in range(7):
                assert s3[v, i] == model.predict(i, tp[v])
        for u in range(4):
            for v in range(3):
                assert s4[u, v] == model.predict(dp[u], tp[v])


class TestRecovery:
    def test_f1_hand_values(self, f1):
        rec = fit_wknnir(f1, 1, 0.5)
        # k=1: each row is copied from its nearest drug, then maxed with Y
        np.testing.assert_array_equal(rec.y_drug, np.ones((3, 2)))
        np.testing.assert_array_equal(rec.y_target, np.ones((3, 2)))
        assert (rec.li_drug, rec.li_target) == (0.75, 0.5)

    def test_joint_blends_raw_recoveries(self, f1):
        rec = fit_wknnir(f1, 1, 0.5)
        # raw (pre-max) recoveries at k=1, blended with (1 - LI)/2 weights
        y_d_raw = np.array([[0, 1], [1, 0], [0, 1]], dtype=float)
        y_t_raw = np.array([[0, 1], [1, 0], [1, 1]], dtype=float)
        want = np.maximum((0.25 * y_d_raw + 0.5 * y_t_raw) / 2, f1.interactions)
        np.testing.assert_allclose(rec.y_joint, want, atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(23)
        for seed in range(15):
            ds = random_dataset(7, 6, seed)
            k = int(rng.integers(1, 6))
            eta = float(rng.integers(1, 11)) / 10
            rec = fit_wknnir(ds, k, eta)
            Y = ds.interactions
            want_d = np.maximum(oracle_recover_rows(ds.drug_sim, Y, k, eta), Y)
            want_t = np.maximum(oracle_recover_rows(ds.target_sim, Y.T, k, eta).T, Y)
            np.testing.assert_allclose(rec.y_drug, want_d, atol=1e-12)
            np.testing.assert_allclose(rec.y_target, want_t, atol=1e-12)

    def test_bit_identical_to_dense_kernel(self):
        # Recovery visits only the nonzero labels; the terms it skips are +0.0.
        rng = np.random.default_rng(77)
        for _ in range(250):
            ds = varied_dataset(rng)
            k = int(rng.choice([1, 2, 3, 5, 9, max(ds.n, ds.m, 2) - 1, max(ds.n, ds.m) + 1]))
            eta = float(rng.choice([0.3, 0.5, 0.8, 1.0, rng.random()]))
            rec = fit_wknnir(ds, k, eta)
            for got, want in zip((rec.y_drug, rec.y_target, rec.y_joint), dense_recovery(ds, k, eta)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,m", [(1, 5), (6, 1), (1, 1), (7, 6), (12, 9)])
    def test_recoveries_c_ordered(self, n, m):
        # The target side is written drugs x targets, not as a transposed view,
        # so the max with Y and the joint blend read C-ordered operands.
        ds = random_dataset(n, m, seed=n * 10 + m)
        Y = ds.interactions
        owner, other = np.nonzero(Y.T != 0)
        table = neighbor_table(ds.target_sim, 3)
        direct = _recover_rows(*table, owner, other, n, 0.7, transpose=True)
        assert direct.flags.c_contiguous
        assert direct.tobytes() == _recover_rows(*table, owner, other, n, 0.7).T.tobytes()
        rec = fit_wknnir(ds, 3, 0.7)
        for mat in (rec.y_drug, rec.y_target, rec.y_joint):
            assert mat.flags.c_contiguous

    def test_lone_entity_rules_agree_on_binary_labels(self):
        # Recovering a one-entity side to zero or keeping its labels gives the
        # same bytes after the max with binary Y, so the fits and every score
        # match a model built under either rule.
        rng = np.random.default_rng(31)
        for _ in range(300):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            ds = random_dataset(n, m, seed=int(rng.integers(2**32)), density=rng.random())
            k, eta = int(rng.integers(1, 5)), float(rng.choice([0.0, 0.5, 1.0, rng.random()]))
            got = fit_wknnir(ds, k, eta)
            report = _clamped_report(ds, k)
            li = (0.0, 0.0) if report is None else (report.li_drug, report.li_target)
            want = WkNNIRModel(ds, k, eta, *dense_recovery(ds, k, eta, lone_keeps_labels=True), *li)
            for name in ("y_drug", "y_target", "y_joint"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            dp, tp = rng.random((3, n)), rng.random((2, m))
            dp[0] = 0.0

            def scores(model):
                return model.predict_s2(dp), model.predict_s3(tp), model.predict_s4(dp, tp)

            for a, b in zip(scores(got), scores(want)):
                assert a.tobytes() == b.tobytes()

    def test_dominance_and_known_ones_preserved(self):
        for seed in range(20):
            ds = random_dataset(9, 7, seed, density=0.35)
            rec = fit_wknnir(ds, 3, 0.7)
            Y = ds.interactions
            for mat in (rec.y_drug, rec.y_target, rec.y_joint):
                assert np.all(mat >= Y)
                assert np.all(mat <= 1.0)
                assert np.all(mat[Y == 1] == 1.0)

    def test_all_ones_unchanged(self):
        ds = make_dataset(
            [[1.0, 0.7, 0.3], [0.7, 1.0, 0.6], [0.3, 0.6, 1.0]],
            [[1.0, 0.4], [0.4, 1.0]],
            [[1, 1], [1, 1], [1, 1]],
        )
        rec = fit_wknnir(ds, 1, 0.5)
        np.testing.assert_array_equal(rec.y_drug, ds.interactions)
        np.testing.assert_array_equal(rec.y_target, ds.interactions)
        np.testing.assert_array_equal(rec.y_joint, ds.interactions)

    def test_no_interactions_gives_zero_imbalance(self):
        ds = make_dataset(
            [[1.0, 0.7, 0.3], [0.7, 1.0, 0.6], [0.3, 0.6, 1.0]],
            [[1.0, 0.4], [0.4, 1.0]],
            [[0, 0], [0, 0], [0, 0]],
        )
        model = fit_wknnir(ds, 2, 0.8)
        assert (model.li_drug, model.li_target) == (0.0, 0.0)
        assert (model.r_drug, model.r_target) == (1.0, 1.0)
        np.testing.assert_array_equal(model.y_joint, ds.interactions)

    def test_zero_similarity_row_keeps_original(self):
        # d2 has no similarity to anyone: its row must survive recovery
        ds = make_dataset(
            [[1.0, 0.7, 0.0], [0.7, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[1.0, 0.4], [0.4, 1.0]],
            [[1, 0], [0, 1], [1, 0]],
        )
        rec = fit_wknnir(ds, 2, 0.8)
        np.testing.assert_array_equal(rec.y_drug[2], [1, 0])


class TestWkNNIR:
    def test_f1_hand_value(self, f1):
        model = fit_wknnir(f1, 1, 0.5)
        assert model.predict(np.array([0.8, 0.4, 0.0]), 1) == 1.0

    def test_rank_scale_construction(self, f1):
        model = fit_wknnir(f1, 1, 0.5)
        # LI at k=1 is (0.75, 0.5): drug side less reliable
        assert model.r_drug == 1.0
        np.testing.assert_allclose(model.r_target, 0.5 / 0.75)

    def test_one_rank_scale_is_always_one(self):
        for seed in range(10):
            model = fit_wknnir(random_dataset(8, 6, seed), 2, 0.6)
            assert max(model.r_drug, model.r_target) == 1.0
            assert 0 < min(model.r_drug, model.r_target) <= 1.0

    def test_matches_oracle_all_settings(self):
        rng = np.random.default_rng(31)
        for seed in range(20):
            ds = random_dataset(8, 6, seed)
            k = int(rng.integers(1, 6))
            eta = float(rng.integers(1, 11)) / 10
            model = fit_wknnir(ds, k, eta)
            dprof = rng.random(8)
            tprof = rng.random(6)
            i = int(rng.integers(8))
            j = int(rng.integers(6))
            np.testing.assert_allclose(
                model.predict(dprof, j),
                oracle_one_side(model.y_target, dprof, j, k, eta),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                model.predict(i, tprof),
                oracle_one_side(model.y_drug.T, tprof, i, k, eta),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                model.predict(dprof, tprof),
                oracle_pair_grid(model.y_joint, dprof, tprof, k, eta, model.r_drug, model.r_target),
                atol=1e-12,
            )

    def test_reduces_to_wknn_under_identity_recovery(self):
        # recovery replaced by the raw matrix and both rank scales at 1
        rng = np.random.default_rng(37)
        for seed in range(10):
            ds = random_dataset(8, 6, seed)
            k = int(rng.integers(1, 6))
            eta = float(rng.integers(1, 11)) / 10
            Y = ds.interactions
            reduced = WkNNIRModel(ds, k, eta, Y, Y, Y, 0.5, 0.5)
            baseline = fit_wknn(ds, k, eta)
            for _ in range(20):
                dprof = rng.random(8)
                tprof = rng.random(6)
                j = int(rng.integers(6))
                i = int(rng.integers(8))
                for q in ((dprof, j), (i, tprof), (dprof, tprof)):
                    np.testing.assert_allclose(
                        reduced.predict(*q), baseline.predict(*q), atol=1e-12
                    )

    @pytest.mark.parametrize("n,m", [(2, 2), (8, 6), (30, 17)])
    def test_wknn_fit_is_identity_recovery_without_copies(self, n, m):
        ds = random_dataset(n, m, seed=n * m)
        model = fit_wknn(ds, 3, 0.7)
        assert type(model) is WkNNIRModel
        assert (model.li_drug, model.li_target) == (0.0, 0.0)
        assert (model.r_drug, model.r_target) == (1.0, 1.0)
        for y in (model.y_drug, model.y_target, model.y_joint):
            assert np.shares_memory(y, ds.interactions)

    def test_model_freezes_views_not_the_callers_arrays(self, f1):
        y = np.array(f1.interactions)
        model = WkNNIRModel(f1, 2, 0.5, y, y, y, 0.1, 0.2)
        assert y.flags.writeable
        for view in (model.y_drug, model.y_target, model.y_joint):
            assert not view.flags.writeable
            assert np.shares_memory(view, y)

    def test_recovery_dominance_lifts_predictions(self):
        # scoring against recovered labels can only raise the score
        rng = np.random.default_rng(41)
        for seed in range(10):
            ds = random_dataset(8, 6, seed)
            model = fit_wknnir(ds, 3, 0.7)
            Y = ds.interactions
            raw_s2 = WkNNIRModel(ds, 3, 0.7, Y, Y, Y, model.li_drug, model.li_target)
            for _ in range(10):
                dprof = rng.random(8)
                j = int(rng.integers(6))
                assert model.predict(dprof, j) >= raw_s2.predict(dprof, j) - 1e-12

    def test_transductive_rejected(self, f1):
        model = fit_wknnir(f1, 1, 0.5)
        with pytest.raises(ValueError, match="transductive"):
            model.predict(1, 0)

    @pytest.mark.parametrize("n,m", [(1, 5), (6, 1), (1, 1)])
    def test_one_entity_side(self, n, m):
        # S4 CV on small data and small ensemble subsets train on such sides.
        full = random_dataset(max(n, 2), max(m, 2), seed=n + m, density=0.5)
        ds = subset(full, np.arange(n), np.arange(m))
        rng = np.random.default_rng(n * 10 + m)
        for k, eta in ((1, 0.5), (3, 0.8), (5, 1.0)):
            model = fit_wknnir(ds, k, eta)
            Y = ds.interactions
            if n == 1:
                np.testing.assert_array_equal(model.y_drug, Y)
            if m == 1:
                np.testing.assert_array_equal(model.y_target, Y)
            assert (model.li_drug, model.li_target) == (0.0, 0.0)
            assert (model.r_drug, model.r_target) == (1.0, 1.0)
            dp, tp = rng.random((4, n)), rng.random((3, m))
            for scores in (model.predict_s2(dp), model.predict_s3(tp), model.predict_s4(dp, tp)):
                assert np.all((scores >= 0) & (scores <= 1))


class TestEntityPermutation:
    def test_scores_and_recovery_follow_the_permutation(self):
        # Tie-free data, so a permutation cannot change a neighbor pick. The
        # check is atol=1e-12, not bytes: the dense LI sums behind y_joint and
        # the S4 rescalers round in an order that follows the entity layout.
        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

        rng = np.random.default_rng(53)
        for seed in range(40):
            n, m = (int(x) for x in rng.integers(3, 25, size=2))
            ds = random_dataset(n, m, seed=600 + seed)
            perm_d, perm_t = rng.permutation(n), rng.permutation(m)
            permuted = subset(ds, perm_d, perm_t)
            k = int(rng.integers(1, max(n, m) + 1))
            eta = float(rng.integers(1, 11)) / 10
            dp, tp = rng.random((4, n)), rng.random((3, m))
            for fit in (fit_wknn, fit_wknnir):
                model, moved = fit(ds, k, eta), fit(permuted, k, eta)
                close(moved.predict_s2(dp[:, perm_d]), model.predict_s2(dp)[:, perm_t])
                close(moved.predict_s3(tp[:, perm_t]), model.predict_s3(tp)[:, perm_d])
                close(moved.predict_s4(dp[:, perm_d], tp[:, perm_t]), model.predict_s4(dp, tp))
            for name in ("y_drug", "y_target", "y_joint"):
                close(getattr(moved, name), getattr(model, name)[np.ix_(perm_d, perm_t)])


def mirror_cases():
    """(dataset, k) pairs: NR shape with and without ties, and sides of 2 with k >= n."""
    datagen = load_datagen()
    for seed in range(4):
        nr = make_dataset(*datagen.generate(54, 26, 90, seed, ties=seed % 2 == 1))
        yield nr, 3
        yield nr, 5
    for seed, (n, m) in enumerate([(2, 6), (7, 2), (2, 2)]):
        yield random_dataset(n, m, seed=700 + seed, density=0.5), 9
    yield make_dataset(*datagen.generate(8, 5, 12, 4, ties=True)), 9


class TestDrugTargetMirror:
    """Swapping the roles of drugs and targets swaps every output.

    Bytes where both halves add the same terms in the same order. Within
    1e-12 where a sum runs in memory order (LI, and through it y_joint;
    the importances) or over drug ranks outside target ranks (S4).
    """

    @staticmethod
    def mirror(ds):
        return DtiDataset(ds.target_ids, ds.drug_ids, ds.target_sim, ds.drug_sim, ds.interactions.T)

    def test_fits_and_scores_mirror(self):
        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

        rng = np.random.default_rng(71)
        for ds, k in mirror_cases():
            mirrored = self.mirror(ds)
            dp, tp = rng.random((4, ds.n)), rng.random((3, ds.m))
            dp[1::2], tp[1::2] = np.round(dp[1::2] * 4) / 4, np.round(tp[1::2] * 4) / 4
            for fit in (fit_wknn, fit_wknnir):
                for eta in (0.5, 0.8):
                    model, swapped = fit(ds, k, eta), fit(mirrored, k, eta)
                    assert model.y_drug.tobytes() == swapped.y_target.T.tobytes()
                    assert model.y_target.tobytes() == swapped.y_drug.T.tobytes()
                    assert model.predict_s2(dp).tobytes() == swapped.predict_s3(dp).tobytes()
                    assert model.predict_s3(tp).tobytes() == swapped.predict_s2(tp).tobytes()
                    close(model.y_joint, swapped.y_joint.T)
                    close([model.li_drug, model.li_target], [swapped.li_target, swapped.li_drug])
                    close(model.predict_s4(dp, tp), swapped.predict_s4(tp, dp).T)
            report, swapped_report = _clamped_report(ds, k), _clamped_report(mirrored, k)
            close(report.drug_importance, swapped_report.target_importance)
            close(report.target_importance, swapped_report.drug_importance)

    def test_new_drug_cv_is_new_target_cv_on_the_mirror(self):
        # S2 shuffles the drugs and S3 on the mirror the same count from the
        # same stream, so the folds coincide.
        for ds, k in mirror_cases():
            folds = min(5, ds.n)
            learner = lambda train: fit_wknnir(train, k, 0.8)
            s2 = run_cv(ds, learner, CvPlan("S2", folds, seed=3))
            s3 = run_cv(self.mirror(ds), learner, CvPlan("S3", folds, seed=3))
            # repr round-trips every float, so equal reprs mean equal bits.
            assert repr(s2.folds) == repr(s3.folds)
            assert repr(s2.mean_aupr) == repr(s3.mean_aupr)


class TestRecoveryBeatsWkNN:
    """The paper's claim that recovery predicts new drugs and targets better.

    On NR- and GPCR-shape ``perfbench/datagen.py`` data, fixed-parameter
    CV (k=5, eta=0.8, one repetition; 5 folds in S2/S3, 3 per side in S4)
    gives wknnir a higher mean AUPR than wknn. Over seeds 0-19 the smallest
    gap was 0.02355/0.02356 (NR S2/S3) and 0.0255/0.0364/0.0128 (GPCR
    S2/S3/S4); the bounds are half of those, rounded down. NR S4 is not
    asserted: its gap was positive on every seed, but only 0.0006 on the
    worst (mean 0.0089). With inverted similarities (1 - S, unit diagonal)
    4 of 20 seeds reached the bound in NR S3 and none in the other cells.
    """

    MIN_GAP = {"nr": {"S2": 0.011, "S3": 0.011}, "gpcr": {"S2": 0.012, "S3": 0.018, "S4": 0.006}}

    @pytest.mark.parametrize("shape", ["nr", "gpcr"])
    def test_wknnir_beats_wknn(self, shape):
        datagen = load_datagen()
        for seed in range(20):
            ds = make_dataset(*datagen.generate(*datagen.SHAPES[shape], seed))
            for setting, bound in self.MIN_GAP[shape].items():
                plan = CvPlan(setting, 3 if setting == "S4" else 5, repetitions=1, seed=seed)
                ir = run_cv(ds, lambda train: fit_wknnir(train, 5, 0.8), plan).mean_aupr
                plain = run_cv(ds, lambda train: fit_wknn(train, 5, 0.8), plan).mean_aupr
                assert ir - plain >= bound, f"{setting} seed {seed}: gap {ir - plain:.4f}"

"""Predictors against naive loop oracles, plus bounds/reduction properties."""

import numpy as np
import pytest

from wknnir import (
    PairQuery,
    RecoverySet,
    WkNNIRModel,
    build_recovery,
    fit_wknn,
    fit_wknnir,
    subset,
)
from conftest import make_dataset, random_dataset


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
        score = model.predict(PairQuery(np.array([0.8, 0.4, 0.0]), 0))
        np.testing.assert_allclose(score, (1 * 0.8 * 1 + 0.5 * 0.4 * 0) / (0.8 + 0.4))

    def test_k1_nearest_positive_scores_one(self, f1):
        model = fit_wknn(f1, 1, 0.3)
        assert model.predict(PairQuery(np.array([0.8, 0.4, 0.0]), 0)) == 1.0

    def test_zero_profile_scores_zero(self, f1):
        model = fit_wknn(f1, 2, 0.5)
        assert model.predict(PairQuery(np.zeros(3), 0)) == 0.0
        assert model.predict(PairQuery(np.zeros(3), np.zeros(2))) == 0.0

    def test_transductive_rejected(self, f1):
        model = fit_wknn(f1, 2, 0.5)
        with pytest.raises(ValueError, match="transductive"):
            model.predict(PairQuery(0, 1))

    def test_bad_profiles_rejected(self, f1):
        model = fit_wknn(f1, 2, 0.5)
        with pytest.raises(ValueError, match="length"):
            model.predict(PairQuery(np.array([0.8, 0.4]), 0))
        with pytest.raises(ValueError, match="outside"):
            model.predict(PairQuery(np.array([0.8, 0.4, 1.3]), 0))
        with pytest.raises(IndexError):
            model.predict(PairQuery(np.array([0.8, 0.4, 0.0]), 7))

    @pytest.mark.parametrize("query", [PairQuery(True, np.array([0.5, 0.2])), PairQuery(np.zeros(3), np.bool_(False))])
    def test_bool_query_side_rejected(self, f1, query):
        # bool is an int subclass; it must not pass for a training index.
        with pytest.raises(TypeError, match="got bool"):
            fit_wknn(f1, 2, 0.5).predict(query)

    def test_nan_profiles_rejected(self, f1):
        model = fit_wknn(f1, 2, 0.5)
        with pytest.raises(ValueError, match="drug profile values outside"):
            model.predict(PairQuery(np.array([0.8, np.nan, 0.0]), 0))
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
            s2 = model.predict(PairQuery(dprof, j))
            np.testing.assert_allclose(s2, oracle_one_side(Y, dprof, j, k, eta), atol=1e-12)
            s3 = model.predict(PairQuery(i, tprof))
            np.testing.assert_allclose(s3, oracle_one_side(Y.T, tprof, i, k, eta), atol=1e-12)
            s4 = model.predict(PairQuery(dprof, tprof))
            np.testing.assert_allclose(s4, oracle_pair_grid(Y, dprof, tprof, k, eta), atol=1e-12)

    def test_s4_k1_equals_nearest_entry(self):
        ds = random_dataset(6, 5, 3)
        model = fit_wknn(ds, 1, 0.4)
        rng = np.random.default_rng(8)
        dprof = rng.random(6) * 0.9 + 0.05
        tprof = rng.random(5) * 0.9 + 0.05
        i = oracle_rank(dprof, 1)[0]
        j = oracle_rank(tprof, 1)[0]
        np.testing.assert_allclose(model.predict(PairQuery(dprof, tprof)), ds.interactions[i, j], atol=1e-12)

    def test_eta_one_all_ones_column_scores_one(self):
        ds = make_dataset(
            [[1.0, 0.7, 0.3], [0.7, 1.0, 0.6], [0.3, 0.6, 1.0]],
            [[1.0, 0.4], [0.4, 1.0]],
            [[1, 0], [1, 1], [1, 0]],
        )
        model = fit_wknn(ds, 3, 1.0)
        assert model.predict(PairQuery(np.array([0.5, 0.2, 0.9]), 0)) == 1.0

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
                assert s2[u, v] == model.predict(PairQuery(dp[u], v))
        for v in range(3):
            for i in range(7):
                assert s3[v, i] == model.predict(PairQuery(i, tp[v]))
        for u in range(4):
            for v in range(3):
                assert s4[u, v] == model.predict(PairQuery(dp[u], tp[v]))


class TestRecovery:
    def test_f1_hand_values(self, f1):
        rec = build_recovery(f1, 1, 0.5)
        # k=1: each row is copied from its nearest drug, then maxed with Y
        np.testing.assert_array_equal(rec.y_drug, np.ones((3, 2)))
        np.testing.assert_array_equal(rec.y_target, np.ones((3, 2)))
        assert (rec.li_drug, rec.li_target) == (0.75, 0.5)

    def test_joint_blends_raw_recoveries(self, f1):
        rec = build_recovery(f1, 1, 0.5)
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
            rec = build_recovery(ds, k, eta)
            Y = ds.interactions
            want_d = np.maximum(oracle_recover_rows(ds.drug_sim, Y, k, eta), Y)
            want_t = np.maximum(oracle_recover_rows(ds.target_sim, Y.T, k, eta).T, Y)
            np.testing.assert_allclose(rec.y_drug, want_d, atol=1e-12)
            np.testing.assert_allclose(rec.y_target, want_t, atol=1e-12)

    def test_dominance_and_known_ones_preserved(self):
        for seed in range(20):
            ds = random_dataset(9, 7, seed, density=0.35)
            rec = build_recovery(ds, 3, 0.7)
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
        rec = build_recovery(ds, 1, 0.5)
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
        assert (model.recovery.li_drug, model.recovery.li_target) == (0.0, 0.0)
        assert (model.r_drug, model.r_target) == (1.0, 1.0)
        np.testing.assert_array_equal(model.recovery.y_joint, ds.interactions)

    def test_zero_similarity_row_keeps_original(self):
        # d2 has no similarity to anyone: its row must survive recovery
        ds = make_dataset(
            [[1.0, 0.7, 0.0], [0.7, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[1.0, 0.4], [0.4, 1.0]],
            [[1, 0], [0, 1], [1, 0]],
        )
        rec = build_recovery(ds, 2, 0.8)
        np.testing.assert_array_equal(rec.y_drug[2], [1, 0])


class TestWkNNIR:
    def test_f1_hand_value(self, f1):
        model = fit_wknnir(f1, 1, 0.5)
        assert model.predict(PairQuery(np.array([0.8, 0.4, 0.0]), 1)) == 1.0

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
            rec = model.recovery
            dprof = rng.random(8)
            tprof = rng.random(6)
            i = int(rng.integers(8))
            j = int(rng.integers(6))
            np.testing.assert_allclose(
                model.predict(PairQuery(dprof, j)),
                oracle_one_side(rec.y_target, dprof, j, k, eta),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                model.predict(PairQuery(i, tprof)),
                oracle_one_side(rec.y_drug.T, tprof, i, k, eta),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                model.predict(PairQuery(dprof, tprof)),
                oracle_pair_grid(rec.y_joint, dprof, tprof, k, eta, model.r_drug, model.r_target),
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
            reduced = WkNNIRModel(
                ds, k, eta, RecoverySet(Y, Y, Y, 0.5, 0.5), r_drug=1.0, r_target=1.0
            )
            baseline = fit_wknn(ds, k, eta)
            for _ in range(20):
                dprof = rng.random(8)
                tprof = rng.random(6)
                j = int(rng.integers(6))
                i = int(rng.integers(8))
                for q in (PairQuery(dprof, j), PairQuery(i, tprof), PairQuery(dprof, tprof)):
                    np.testing.assert_allclose(
                        reduced.predict(q), baseline.predict(q), atol=1e-12
                    )

    def test_recovery_dominance_lifts_predictions(self):
        # scoring against recovered labels can only raise the score
        rng = np.random.default_rng(41)
        for seed in range(10):
            ds = random_dataset(8, 6, seed)
            model = fit_wknnir(ds, 3, 0.7)
            Y = ds.interactions
            raw_s2 = WkNNIRModel(
                ds, 3, 0.7, RecoverySet(Y, Y, Y, model.recovery.li_drug, model.recovery.li_target),
                model.r_drug, model.r_target,
            )
            for _ in range(10):
                dprof = rng.random(8)
                j = int(rng.integers(6))
                assert model.predict(PairQuery(dprof, j)) >= raw_s2.predict(PairQuery(dprof, j)) - 1e-12

    def test_transductive_rejected(self, f1):
        model = fit_wknnir(f1, 1, 0.5)
        with pytest.raises(ValueError, match="transductive"):
            model.predict(PairQuery(1, 0))

    @pytest.mark.parametrize("n,m", [(1, 5), (6, 1), (1, 1)])
    def test_one_entity_side(self, n, m):
        # S4 CV on small data and small ensemble subsets train on such sides.
        full = random_dataset(max(n, 2), max(m, 2), seed=n + m, density=0.5)
        ds = subset(full, np.arange(n), np.arange(m))
        rng = np.random.default_rng(n * 10 + m)
        for k, eta in ((1, 0.5), (3, 0.8), (5, 1.0)):
            model = fit_wknnir(ds, k, eta)
            rec = model.recovery
            Y = ds.interactions
            if n == 1:
                np.testing.assert_array_equal(rec.y_drug, Y)
            if m == 1:
                np.testing.assert_array_equal(rec.y_target, Y)
            assert (rec.li_drug, rec.li_target) == (0.0, 0.0)
            assert (model.r_drug, model.r_target) == (1.0, 1.0)
            dp, tp = rng.random((4, n)), rng.random((3, m))
            for scores in (model.predict_s2(dp), model.predict_s3(tp), model.predict_s4(dp, tp)):
                assert np.all((scores >= 0) & (scores <= 1))

"""Tests for fold generation, AUPR, cross-validation, tuning, and ranking."""

import math

import numpy as np
import pytest

from wknnir import (
    DEFAULT_GRID,
    CvPlan,
    EnsembleModel,
    ParamGrid,
    SamplingStrategy,
    WkNNIRModel,
    WkNNModel,
    aupr,
    base_factory,
    ensemble_factory,
    fit_wknn,
    fit_wknnir,
    fixed_learner,
    generate_folds,
    rank_novel,
    run_cv,
    subset,
    tune_hyperparameters,
    tuned_learner,
)
from conftest import make_dataset, random_dataset


def oracle_aupr(scores, labels):
    """Explicit confusion-matrix sweep over unique score thresholds."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    total_pos = labels.sum()
    area = 0.0
    prev_recall = 0.0
    for t in np.unique(scores)[::-1]:
        predicted = scores >= t
        tp = float(np.sum(predicted & (labels == 1)))
        precision = tp / predicted.sum()
        recall = tp / total_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


class _Flat:
    """Constant-score model: every pair gets the same score."""

    def __init__(self, train, value=0.5):
        self.train = train
        self.value = value

    def predict_s2(self, drug_profiles):
        rows = np.atleast_2d(drug_profiles).shape[0]
        return np.full((rows, self.train.m), self.value)

    def predict_s3(self, target_profiles):
        rows = np.atleast_2d(target_profiles).shape[0]
        return np.full((rows, self.train.n), self.value)

    def predict_s4(self, drug_profiles, target_profiles):
        return np.full(
            (np.atleast_2d(drug_profiles).shape[0], np.atleast_2d(target_profiles).shape[0]),
            self.value,
        )


class TestAupr:
    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            size = int(rng.integers(2, 40))
            # Scores on a coarse dyadic grid force tie groups.
            scores = rng.integers(0, 5, size) / 4.0
            labels = (rng.random(size) < 0.4).astype(float)
            if labels.sum() == 0:
                labels[rng.integers(size)] = 1.0
            assert abs(aupr(scores, labels) - oracle_aupr(scores, labels)) <= 1e-12

    def test_matches_oracle_without_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            size = int(rng.integers(2, 40))
            scores = rng.permutation(size) / size
            labels = (rng.random(size) < 0.4).astype(float)
            if labels.sum() == 0:
                labels[rng.integers(size)] = 1.0
            assert abs(aupr(scores, labels) - oracle_aupr(scores, labels)) <= 1e-12

    def test_hand_example(self):
        # Steps: top-1 gives P=1 at R=1/2, top-3 gives P=2/3 at R=1.
        assert abs(aupr([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) - 5 / 6) <= 1e-12

    def test_perfect_ranking_scores_one(self):
        assert aupr([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_tied_equals_positive_rate(self):
        assert abs(aupr([0.5] * 6, [1, 0, 0, 1, 0, 0]) - 1 / 3) <= 1e-12

    def test_order_preserving_transform_is_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores = rng.integers(0, 8, 20) / 8.0
            labels = (rng.random(20) < 0.3).astype(float)
            if labels.sum() == 0:
                labels[0] = 1.0
            assert aupr(scores, labels) == aupr(3.0 * scores + 0.5, labels)

    def test_accepts_matrix_input(self):
        scores = np.array([[0.9, 0.8], [0.7, 0.6]])
        labels = np.array([[1, 0], [1, 0]])
        assert aupr(scores, labels) == aupr(scores.ravel(), labels.ravel())

    @pytest.mark.parametrize(
        "scores,labels,message",
        [
            ([0.5, 0.4], [1], "differ in length"),
            ([], [], "empty"),
            ([0.5, 0.4], [1, 2], "binary"),
            ([0.5, 0.4], [0, 0], "no positive"),
            ([float("nan"), 0.5, 0.2, float("nan")], [1, 0, 1, 0], "finite"),
            ([float("inf"), 0.5], [1, 0], "finite"),
        ],
    )
    def test_rejects_bad_input(self, scores, labels, message):
        with pytest.raises(ValueError, match=message):
            aupr(scores, labels)


class TestCvPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"setting": "S1", "folds": 10},
            {"setting": "S2", "folds": 1},
            {"setting": "S2", "folds": 10, "repetitions": 0},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            CvPlan(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"folds": 2.5}, "integer folds >= 2"),
            ({"folds": np.float64(5)}, "integer folds >= 2"),
            ({"folds": 5, "repetitions": 1.5}, "integer repetitions >= 1"),
            ({"folds": 5, "repetitions": True}, "integer repetitions >= 1"),
        ],
    )
    def test_counts_not_integers(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            CvPlan("S2", **kwargs)

    def test_defaults(self):
        plan = CvPlan("S2", 10)
        assert plan.repetitions == 2 and plan.seed == 0


class TestGenerateFolds:
    def test_s2_partitions_drugs(self):
        ds = random_dataset(17, 6, seed=3)
        folds = generate_folds(ds, CvPlan("S2", 5, repetitions=2))
        assert len(folds) == 10
        for rep in range(2):
            part = [f for f in folds if f.repetition == rep]
            tested = np.concatenate([f.test_drugs for f in part])
            np.testing.assert_array_equal(np.sort(tested), np.arange(17))
            sizes = {f.test_drugs.size for f in part}
            assert max(sizes) - min(sizes) <= 1
            for f in part:
                assert np.intersect1d(f.train_drugs, f.test_drugs).size == 0
                np.testing.assert_array_equal(np.sort(np.concatenate([f.train_drugs, f.test_drugs])), np.arange(17))
                np.testing.assert_array_equal(f.train_targets, np.arange(6))
                assert f.test_targets.size == 0

    def test_s3_partitions_targets(self):
        ds = random_dataset(6, 13, seed=4)
        folds = generate_folds(ds, CvPlan("S3", 4, repetitions=2))
        assert len(folds) == 8
        for rep in range(2):
            part = [f for f in folds if f.repetition == rep]
            tested = np.concatenate([f.test_targets for f in part])
            np.testing.assert_array_equal(np.sort(tested), np.arange(13))
            for f in part:
                assert np.intersect1d(f.train_targets, f.test_targets).size == 0
                np.testing.assert_array_equal(f.train_drugs, np.arange(6))
                assert f.test_drugs.size == 0

    def test_s4_blocks_tile_the_matrix(self):
        ds = random_dataset(8, 7, seed=5)
        folds = generate_folds(ds, CvPlan("S4", 3, repetitions=2))
        assert len(folds) == 18
        for rep in range(2):
            counts = np.zeros((8, 7), dtype=int)
            for f in (f for f in folds if f.repetition == rep):
                counts[np.ix_(f.test_drugs, f.test_targets)] += 1
                # Training block shares no drug and no target with the test block.
                assert np.intersect1d(f.train_drugs, f.test_drugs).size == 0
                assert np.intersect1d(f.train_targets, f.test_targets).size == 0
            np.testing.assert_array_equal(counts, np.ones((8, 7), dtype=int))

    def test_fold_sizes_for_uneven_split(self):
        # 54 entities over 10 folds: four folds of 6, six folds of 5.
        ds = random_dataset(54, 5, seed=6)
        folds = generate_folds(ds, CvPlan("S2", 10, repetitions=1))
        sizes = sorted((f.test_drugs.size for f in folds), reverse=True)
        assert sizes == [6, 6, 6, 6, 5, 5, 5, 5, 5, 5]

    def test_deterministic_and_reps_reshuffle(self):
        ds = random_dataset(30, 5, seed=7)
        a = generate_folds(ds, CvPlan("S2", 10, repetitions=2, seed=3))
        b = generate_folds(ds, CvPlan("S2", 10, repetitions=2, seed=3))
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.test_drugs, fb.test_drugs)
        rep0 = [f.test_drugs.tolist() for f in a if f.repetition == 0]
        rep1 = [f.test_drugs.tolist() for f in a if f.repetition == 1]
        assert rep0 != rep1

    @staticmethod
    def _three_branch_folds(ds, plan):
        # One branch per setting: drug folds, target folds, drug x target blocks.
        def round_robin(perm, folds):
            return [np.sort(perm[f::folds]) for f in range(folds)]

        n, m = ds.n, ds.m
        all_drugs, all_targets = np.arange(n), np.arange(m)
        out = []
        for rep in range(plan.repetitions):
            rng = np.random.default_rng(plan.seed + rep)
            if plan.setting == "S2":
                for f, test in enumerate(round_robin(rng.permutation(n), plan.folds)):
                    empty = np.array([], dtype=int)
                    out.append(("S2", rep, f, np.setdiff1d(all_drugs, test), all_targets, test, empty))
            elif plan.setting == "S3":
                for f, test in enumerate(round_robin(rng.permutation(m), plan.folds)):
                    empty = np.array([], dtype=int)
                    out.append(("S3", rep, f, all_drugs, np.setdiff1d(all_targets, test), empty, test))
            else:
                drug_parts = round_robin(rng.permutation(n), plan.folds)
                target_parts = round_robin(rng.permutation(m), plan.folds)
                for fd, dtest in enumerate(drug_parts):
                    for ft, ttest in enumerate(target_parts):
                        out.append(
                            (
                                "S4",
                                rep,
                                fd * plan.folds + ft,
                                np.setdiff1d(all_drugs, dtest),
                                np.setdiff1d(all_targets, ttest),
                                dtest,
                                ttest,
                            )
                        )
        return out

    @pytest.mark.parametrize("setting", ["S2", "S3", "S4"])
    def test_equals_three_branch_generator(self, setting):
        ds = random_dataset(11, 7, seed=15)
        most = {"S2": ds.n, "S3": ds.m, "S4": min(ds.n, ds.m)}[setting]
        for folds in sorted({2, 3, 5, most}):
            for seed in (0, 4, 123):
                for reps in (1, 3):
                    plan = CvPlan(setting, folds, repetitions=reps, seed=seed)
                    got = generate_folds(ds, plan)
                    want = self._three_branch_folds(ds, plan)
                    assert len(got) == len(want)
                    for fold, (name, rep, index, *arrays) in zip(got, want):
                        assert (fold.setting, fold.repetition, fold.index) == (name, rep, index)
                        fields = (fold.train_drugs, fold.train_targets, fold.test_drugs, fold.test_targets)
                        for have, expected in zip(fields, arrays):
                            assert have.dtype == expected.dtype
                            np.testing.assert_array_equal(have, expected)

    @pytest.mark.parametrize("setting,folds", [("S2", 9), ("S3", 8), ("S4", 9), ("S4", 8)])
    def test_rejects_more_folds_than_entities(self, setting, folds):
        ds = random_dataset(8, 7, seed=8)
        with pytest.raises(ValueError, match="fold count"):
            generate_folds(ds, CvPlan(setting, folds))


class TestRunCv:
    @pytest.mark.parametrize("setting,folds", [("S2", 4), ("S3", 4), ("S4", 3)])
    def test_constant_scores_give_positive_rate(self, setting, folds):
        ds = random_dataset(12, 10, seed=9)
        result = run_cv(ds, _Flat, CvPlan(setting, folds, repetitions=2))
        assert result.setting == setting
        defined = []
        for fr in result.folds:
            if fr.positives == 0:
                assert math.isnan(fr.aupr)
            else:
                # One tie group covering everything: AUPR = positive rate.
                assert abs(fr.aupr - fr.positives / fr.pairs) <= 1e-12
                defined.append(fr.aupr)
        assert abs(result.mean_aupr - np.mean(defined)) <= 1e-12

    def test_s2_fold_pair_counts(self):
        ds = random_dataset(12, 10, seed=10)
        result = run_cv(ds, _Flat, CvPlan("S2", 4, repetitions=1))
        assert sum(fr.pairs for fr in result.folds) == 12 * 10

    def test_matches_by_hand_fold_evaluation(self):
        ds = random_dataset(10, 8, seed=11)
        plan = CvPlan("S2", 5, repetitions=1)
        learner = fixed_learner(fit_wknn, 2, 0.8)
        result = run_cv(ds, learner, plan)
        fold = generate_folds(ds, plan)[2]
        model = learner(subset(ds, fold.train_drugs, fold.train_targets))
        scores = model.predict_s2(ds.drug_sim[np.ix_(fold.test_drugs, fold.train_drugs)])
        labels = ds.interactions[np.ix_(fold.test_drugs, fold.train_targets)]
        assert result.folds[2].aupr == aupr(scores.ravel(), labels.ravel())

    def test_s3_folds_match_target_major_evaluation(self):
        # Scores are gathered drugs x targets; AUPR must not see the order
        # in which tied pairs arrive, so quantised (tie-heavy) data is used.
        ds = random_dataset(12, 9, seed=16)
        ds = make_dataset(np.round(ds.drug_sim * 4) / 4, np.round(ds.target_sim * 4) / 4, ds.interactions)
        plan = CvPlan("S3", 3, repetitions=2)
        learner = fixed_learner(fit_wknn, 3, 0.8)
        result = run_cv(ds, learner, plan)
        for fold, fr in zip(generate_folds(ds, plan), result.folds):
            model = learner(subset(ds, fold.train_drugs, fold.train_targets))
            scores = model.predict_s3(ds.target_sim[np.ix_(fold.test_targets, fold.train_targets)])
            labels = ds.interactions[np.ix_(fold.train_drugs, fold.test_targets)].T
            assert (fr.pairs, fr.positives) == (labels.size, int(labels.sum()))
            if fr.positives:
                assert fr.aupr == aupr(scores.ravel(), labels.ravel())

    def test_threads_do_not_change_the_result(self):
        ds = random_dataset(12, 9, seed=12)
        plan = CvPlan("S3", 3, repetitions=2)
        learner = fixed_learner(fit_wknnir, 2, 0.8)
        serial = run_cv(ds, learner, plan, threads=1)
        parallel = run_cv(ds, learner, plan, threads=4)
        assert serial.mean_aupr == parallel.mean_aupr
        for a, b in zip(serial.folds, parallel.folds):
            assert (a.repetition, a.index, a.pairs, a.positives) == (b.repetition, b.index, b.pairs, b.positives)
            assert a.aupr == b.aupr or (math.isnan(a.aupr) and math.isnan(b.aupr))

    def test_mean_stays_in_unit_interval(self):
        for setting, folds in (("S2", 3), ("S3", 3), ("S4", 2)):
            ds = random_dataset(9, 8, seed=14)
            result = run_cv(ds, fixed_learner(fit_wknn, 2, 0.8), CvPlan(setting, folds, repetitions=1))
            assert math.isnan(result.mean_aupr) or 0 <= result.mean_aupr <= 1


class TestParamGrid:
    def test_cells_iterate_in_row_major_order(self):
        grid = ParamGrid((1, 2), (0.5, 1.0))
        assert list(grid.cells()) == [(1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0)]

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            ParamGrid((), (0.5,))
        with pytest.raises(ValueError):
            ParamGrid((1,), ())

    def test_default_grid_contents(self):
        assert DEFAULT_GRID.k_values == (1, 2, 3, 5, 7, 9)
        assert DEFAULT_GRID.eta_values == tuple(round(0.1 * i, 1) for i in range(1, 11))


class TestTuneHyperparameters:
    def test_single_cell_grid_returns_that_cell(self):
        ds = random_dataset(10, 8, seed=15)
        best = tune_hyperparameters(ds, ParamGrid((3,), (0.7,)), CvPlan("S2", 5, repetitions=1), 5)
        assert best == {"k": 3, "eta": 0.7}

    def test_picks_the_exhaustive_argmax(self):
        ds = random_dataset(12, 9, seed=16)
        grid = ParamGrid((1, 3), (0.5, 1.0))
        plan = CvPlan("S2", 4, repetitions=1, seed=2)
        best = tune_hyperparameters(ds, grid, plan, 4)
        inner = CvPlan("S2", 4, repetitions=1, seed=2)
        expected, expected_mean = None, -math.inf
        for k, eta in grid.cells():
            mean = run_cv(ds, fixed_learner(fit_wknn, k, eta), inner).mean_aupr
            if not math.isnan(mean) and mean > expected_mean:
                expected, expected_mean = {"k": k, "eta": eta}, mean
        assert best == expected

    def test_ties_keep_the_first_cell(self):
        # A factory that ignores its parameters makes every cell tie.
        ds = random_dataset(10, 8, seed=17)
        grid = ParamGrid((9, 1, 3), (0.2, 0.9))
        best = tune_hyperparameters(
            ds, grid, CvPlan("S3", 4, repetitions=1), 4, factory=lambda train, k, eta: _Flat(train)
        )
        assert best == {"k": 9, "eta": 0.2}

    def test_inner_folds_override_the_plan(self):
        # The plan's fold count must not leak into the inner CV: with only
        # 4 drugs, 10 plan folds would be unbuildable at S2.
        ds = random_dataset(4, 8, seed=18)
        best = tune_hyperparameters(ds, ParamGrid((1,), (1.0,)), CvPlan("S2", 10, repetitions=1), 2)
        assert best == {"k": 1, "eta": 1.0}


class TestLearnerFactories:
    def test_base_factory_lookup(self):
        assert base_factory("wknn") is fit_wknn
        assert base_factory("wknnir") is fit_wknnir
        with pytest.raises(ValueError, match="unknown method"):
            base_factory("knn")

    def test_fixed_learner_binds_parameters(self):
        ds = random_dataset(8, 6, seed=19)
        model = fixed_learner(fit_wknn, 2, 0.7)(ds)
        direct = fit_wknn(ds, 2, 0.7)
        assert (model.k, model.eta) == (direct.k, direct.eta)
        profiles = np.random.default_rng(20).random((2, 8))
        np.testing.assert_array_equal(model.predict_s2(profiles), direct.predict_s2(profiles))

    def test_tuned_learner_single_cell_equals_fixed(self):
        ds = random_dataset(10, 8, seed=21)
        tuned = tuned_learner(fit_wknn, ParamGrid((2,), (0.6,)), "S2", 3)(ds)
        fixed = fixed_learner(fit_wknn, 2, 0.6)(ds)
        profiles = np.random.default_rng(22).random((2, 10))
        np.testing.assert_array_equal(tuned.predict_s2(profiles), fixed.predict_s2(profiles))

    def test_tuned_learner_final_factory_builds_the_ensemble(self):
        # Parameters are selected with the bare base model, then handed to
        # the ensemble builder.
        ds = random_dataset(10, 8, seed=23)
        final = ensemble_factory("wknn", q=2, ratio=1.0, strategy=SamplingStrategy("uniform"))
        model = tuned_learner(fit_wknn, ParamGrid((3,), (0.4,)), "S2", 3, final_factory=final)(ds)
        assert isinstance(model, EnsembleModel)
        assert model.q == 2
        for mem in model.members:
            assert type(mem.model) is WkNNModel
            assert (mem.model.k, mem.model.eta) == (3, 0.4)

    def test_ensemble_factory_builds_members_with_given_params(self):
        ds = random_dataset(9, 7, seed=24)
        ens = ensemble_factory("wknnir", q=3, ratio=0.8, strategy=SamplingStrategy("global"), seed=5)(ds, 2, 0.9)
        assert ens.q == 3
        for mem in ens.members:
            assert type(mem.model) is WkNNIRModel
            assert (mem.model.k, mem.model.eta) == (2, 0.9)


class TestRankNovel:
    def test_excludes_known_interactions(self):
        ds = random_dataset(10, 8, seed=25)
        known = {(ds.drug_ids[i], ds.target_ids[j]) for i, j in zip(*np.nonzero(ds.interactions))}
        for drug_id, target_id, _ in rank_novel(ds, fixed_learner(fit_wknn, 2, 0.8), "S2", 20, folds=5):
            assert (drug_id, target_id) not in known

    @pytest.mark.parametrize("setting,folds", [("S2", 5), ("S3", 4), ("S4", 2)])
    def test_scores_every_unobserved_pair(self, setting, folds):
        ds = random_dataset(10, 8, seed=26)
        zeros = int((ds.interactions == 0).sum())
        ranked = rank_novel(ds, fixed_learner(fit_wknn, 2, 0.8), setting, zeros + 50, folds=folds)
        assert len(ranked) == zeros
        assert all(math.isfinite(score) for _, _, score in ranked)

    def test_sorted_by_score_then_ids(self):
        ds = random_dataset(10, 8, seed=27)
        ranked = rank_novel(ds, fixed_learner(fit_wknn, 2, 0.8), "S2", 40, folds=5)
        keys = [(-score, drug_id, target_id) for drug_id, target_id, score in ranked]
        assert keys == sorted(keys)

    def test_truncates_to_top_n(self):
        ds = random_dataset(10, 8, seed=28)
        full = rank_novel(ds, fixed_learner(fit_wknn, 2, 0.8), "S2", 30, folds=5)
        head = rank_novel(ds, fixed_learner(fit_wknn, 2, 0.8), "S2", 7, folds=5)
        assert head == full[:7]

    def test_deterministic_given_seed(self):
        ds = random_dataset(10, 8, seed=29)
        a = rank_novel(ds, fixed_learner(fit_wknn, 2, 0.8), "S3", 10, folds=4, seed=3)
        b = rank_novel(ds, fixed_learner(fit_wknn, 2, 0.8), "S3", 10, folds=4, seed=3)
        assert a == b

    @pytest.mark.parametrize("setting,folds", [("S2", 5), ("S3", 4), ("S4", 3)])
    def test_equals_direct_per_fold_fill(self, setting, folds):
        ds = random_dataset(12, 9, seed=30)
        learner = fixed_learner(fit_wknnir, 3, 0.7)
        expected = np.full((ds.n, ds.m), np.nan)
        for fold in generate_folds(ds, CvPlan(setting, folds, repetitions=1, seed=5)):
            model = learner(subset(ds, fold.train_drugs, fold.train_targets))
            dp = ds.drug_sim[np.ix_(fold.test_drugs, fold.train_drugs)]
            tp = ds.target_sim[np.ix_(fold.test_targets, fold.train_targets)]
            if setting == "S2":
                expected[fold.test_drugs, :] = model.predict_s2(dp)
            elif setting == "S3":
                expected[:, fold.test_targets] = model.predict_s3(tp).T
            else:
                expected[np.ix_(fold.test_drugs, fold.test_targets)] = model.predict_s4(dp, tp)
        assert not np.isnan(expected).any()
        rows, cols = np.nonzero(ds.interactions == 0)
        want = sorted(
            ((ds.drug_ids[i], ds.target_ids[j], float(expected[i, j])) for i, j in zip(rows, cols)),
            key=lambda r: (-r[2], r[0], r[1]),
        )
        assert rank_novel(ds, learner, setting, len(want), folds=folds, seed=5) == want

    def test_rejects_bad_top_n(self, f1):
        with pytest.raises(ValueError, match="top_n"):
            rank_novel(f1, fixed_learner(fit_wknn, 1, 0.8), "S2", 0, folds=3)

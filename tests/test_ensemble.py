"""Tests for sampling strategies, weighted sampling, and the bagging ensemble."""

import numpy as np
import pytest

from wknnir import (
    EnsembleMember,
    EnsembleModel,
    SamplingStrategy,
    WkNNIRModel,
    fit_wknn,
    fit_wknnir,
    imbalance_report,
    sample_without_replacement,
    sampling_probabilities,
    subset,
    train_ensemble,
)
from wknnir import ensemble as ensemble_module
from conftest import make_dataset, random_dataset, varied_dataset
import exact
from golden import generate


def _without_interactions(ds):
    return make_dataset(ds.drug_sim, ds.target_sim, np.zeros((ds.n, ds.m)))


class TestSamplingStrategy:
    def test_defaults(self):
        s = SamplingStrategy("uniform")
        assert s.sigma == 0.1 and s.k == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "weighted"},
            {"kind": "global", "sigma": -0.1},
            {"kind": "local", "k": 0},
            {"kind": "global", "sigma": float("nan")},
            {"kind": "local", "sigma": float("inf")},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            SamplingStrategy(**kwargs)

    @pytest.mark.parametrize("k", [2.5, True])
    def test_local_k_not_an_integer(self, k):
        with pytest.raises(ValueError, match="integer k >= 1"):
            SamplingStrategy("local", k=k)


class TestSamplingProbabilities:
    @pytest.mark.parametrize("kind", ["uniform", "global", "local"])
    def test_simplex_on_random_datasets(self, kind):
        strategy = SamplingStrategy(kind, k=2)
        for seed in range(20):
            ds = random_dataset(6 + seed % 4, 5 + seed % 3, seed=seed)
            for p, side in zip(sampling_probabilities(ds, strategy), (ds.n, ds.m)):
                assert p.shape == (side,)
                assert np.all(p >= 0)
                assert abs(p.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("kind", ["uniform", "global", "local"])
    def test_matches_exact_weights(self, kind):
        rng = np.random.default_rng(["uniform", "global", "local"].index(kind))
        for _ in range(60):
            ds, sigma, k = varied_dataset(rng), float(rng.choice([0.0, 0.1, rng.random()])), int(rng.integers(1, 6))
            got = sampling_probabilities(ds, SamplingStrategy(kind, sigma, k))
            for side, want in zip(got, exact.sampling_weights(ds, kind, sigma, k)):
                exact.check(side, want, "els")

    def test_uniform_is_exactly_flat(self, f1):
        p_drug, p_target = sampling_probabilities(f1, SamplingStrategy("uniform"))
        np.testing.assert_array_equal(p_drug, np.full(3, 1.0 / 3))
        np.testing.assert_array_equal(p_target, np.full(2, 1.0 / 2))

    def test_global_hand_values(self, f1):
        # Interaction counts: drugs [1, 1, 2], targets [2, 2]; sigma 0.1.
        p_drug, p_target = sampling_probabilities(f1, SamplingStrategy("global"))
        np.testing.assert_allclose(p_drug, np.array([1.1, 1.1, 2.1]) / 4.3, atol=1e-15)
        np.testing.assert_allclose(p_target, np.array([2.1, 2.1]) / 4.2, atol=1e-15)

    def test_local_hand_values(self, f1):
        # Importances at k=1: drugs [1, 1, 1], targets [1, 1]; smoothing
        # washes out into uniform weights on both sides.
        p_drug, p_target = sampling_probabilities(f1, SamplingStrategy("local", k=1))
        np.testing.assert_allclose(p_drug, np.full(3, 1.0 / 3), atol=1e-15)
        np.testing.assert_allclose(p_target, np.full(2, 1.0 / 2), atol=1e-15)

    def test_local_without_interactions_is_uniform(self):
        ds = make_dataset(
            [[1.0, 0.8, 0.2], [0.8, 1.0, 0.4], [0.2, 0.4, 1.0]],
            [[1.0, 0.5], [0.5, 1.0]],
            [[0, 0], [0, 0], [0, 0]],
        )
        p_drug, p_target = sampling_probabilities(ds, SamplingStrategy("local", k=1))
        np.testing.assert_allclose(p_drug, np.full(3, 1.0 / 3), atol=1e-15)
        np.testing.assert_allclose(p_target, np.full(2, 1.0 / 2), atol=1e-15)

    def test_local_clamps_k_like_the_base_model(self):
        # 4 drugs: k=5 is clamped to 3 on both sides, as fit_wknnir does.
        ds = random_dataset(4, 6, seed=0)
        report = imbalance_report(ds, 3)
        p_drug, p_target = sampling_probabilities(ds, SamplingStrategy("local", sigma=0.1, k=5))
        np.testing.assert_array_equal(
            p_drug, (0.1 + report.drug_importance) / (4 * 0.1 + report.drug_importance.sum())
        )
        np.testing.assert_array_equal(
            p_target, (0.1 + report.target_importance) / (6 * 0.1 + report.target_importance.sum())
        )
        ens = train_ensemble(ds, lambda sub: fit_wknnir(sub, 5, 0.8), 3, 0.9, SamplingStrategy("local", k=5))
        assert ens.q == 3

    def test_local_with_a_one_entity_side_uses_counts(self):
        ds = make_dataset([[1.0]], [[1.0, 0.3, 0.6], [0.3, 1.0, 0.2], [0.6, 0.2, 1.0]], [[1, 0, 1]])
        local = sampling_probabilities(ds, SamplingStrategy("local", k=2))
        counts = sampling_probabilities(ds, SamplingStrategy("global"))
        for a, b in zip(local, counts):
            np.testing.assert_array_equal(a, b)

    def test_zero_sigma_keeps_zero_weight_entities_at_zero(self):
        ds = make_dataset(
            [[1.0, 0.8, 0.2], [0.8, 1.0, 0.4], [0.2, 0.4, 1.0]],
            [[1.0, 0.5], [0.5, 1.0]],
            [[1, 0], [0, 0], [1, 1]],
        )
        p_drug, _ = sampling_probabilities(ds, SamplingStrategy("global", sigma=0.0))
        assert p_drug[1] == 0.0
        assert abs(p_drug.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("kind", ["global", "local"])
    def test_zero_sigma_on_an_all_zero_side_is_uniform(self, kind):
        # No interactions: every weight is 0, so sigma = 0 leaves 0 / 0.
        # The answer is the sigma -> 0+ limit, which any sigma > 0 gives.
        ds = _without_interactions(random_dataset(5, 4, seed=1))
        p_drug, p_target = sampling_probabilities(ds, SamplingStrategy(kind, sigma=0.0, k=2))
        np.testing.assert_array_equal(p_drug, np.full(5, 1.0 / 5))
        np.testing.assert_array_equal(p_target, np.full(4, 1.0 / 4))
        for a, b in zip((p_drug, p_target), sampling_probabilities(ds, SamplingStrategy(kind, sigma=1e-3, k=2))):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    def test_zero_sigma_without_interactions_draws_distinct_members(self):
        ds = _without_interactions(random_dataset(6, 5, seed=2))
        ens = train_ensemble(ds, lambda sub: fit_wknn(sub, 2, 0.8), 6, 0.5, SamplingStrategy("global", sigma=0.0))
        for mem in ens.members:
            assert len(set(mem.drug_subset.tolist())) == 3
            assert len(set(mem.target_subset.tolist())) == 2
        assert len({tuple(mem.drug_subset) for mem in ens.members}) > 1
        assert len({tuple(mem.target_subset) for mem in ens.members}) > 1


class TestSampleWithoutReplacement:
    def test_degenerate_mass_forces_the_index(self):
        for seed in range(10):
            out = sample_without_replacement([0.0, 1.0, 0.0], 1, seed)
            np.testing.assert_array_equal(out, [1])

    def test_full_draw_is_a_permutation(self):
        for seed in range(20):
            p = np.random.default_rng(seed).random(7)
            p /= p.sum()
            out = sample_without_replacement(p, 7, seed)
            np.testing.assert_array_equal(np.sort(out), np.arange(7))

    def test_draws_are_distinct(self):
        for seed in range(20):
            p = np.random.default_rng(seed).random(12)
            p /= p.sum()
            out = sample_without_replacement(p, 8, seed)
            assert len(set(out.tolist())) == 8

    def test_deterministic_given_seed(self):
        p = np.array([0.3, 0.2, 0.1, 0.25, 0.15])
        a = sample_without_replacement(p, 4, 42)
        b = sample_without_replacement(p, 4, 42)
        np.testing.assert_array_equal(a, b)

    def test_generator_and_seed_agree(self):
        p = np.array([0.3, 0.2, 0.1, 0.25, 0.15])
        a = sample_without_replacement(p, 4, 7)
        b = sample_without_replacement(p, 4, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_first_draw_frequency_tracks_weights(self):
        p = np.array([0.6, 0.3, 0.1])
        gen = np.random.default_rng(0)
        draws = np.array([sample_without_replacement(p, 1, gen)[0] for _ in range(4000)])
        freq = np.bincount(draws, minlength=3) / draws.size
        np.testing.assert_allclose(freq, p, atol=0.03)

    @staticmethod
    def _choice_oracle(p, count, gen):
        # Sequential renormalised selection through Generator.choice on the
        # compacted remaining weights.
        remaining = np.arange(p.size)
        weights = np.array(p, dtype=float)
        out = []
        for _ in range(count):
            pos = int(gen.choice(weights.size, p=weights / weights.sum()))
            out.append(remaining[pos])
            remaining = np.delete(remaining, pos)
            weights = np.delete(weights, pos)
        return np.array(out)

    def test_matches_sequential_choice_oracle(self):
        cases = np.random.default_rng(2024)
        for case in range(320):
            size = int(cases.integers(1, 200))
            p = cases.random(size)
            if case % 4 == 1:
                p[cases.random(size) < 0.4] = 0.0  # zero-probability entries
            elif case % 4 == 2:
                p = np.round(p * 4) / 4  # quantised, heavily tied weights
            if not p.any():
                p[0] = 1.0
            p /= p.sum()
            nonzero = int(np.count_nonzero(p))
            count = nonzero if case % 3 == 0 else int(cases.integers(1, nonzero + 1))
            seed = int(cases.integers(2**32))
            if case % 2:
                got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
                got = sample_without_replacement(p, count, got_gen)
                want = self._choice_oracle(p, count, want_gen)
                # The stream is left where the oracle leaves it, so later draws agree too.
                assert got_gen.random() == want_gen.random()
            else:
                got = sample_without_replacement(p, count, seed)
                want = self._choice_oracle(p, count, np.random.default_rng(seed))
            assert got.dtype == np.dtype(int)
            np.testing.assert_array_equal(got, want, err_msg=f"case {case}")

    def test_matches_oracle_at_benchmark_sizes_and_on_skewed_weights(self):
        # Sides as wide as the E-shape target side, and draw-all runs where a
        # tenth of the weights are heavy and the rest 1e-6..1e-13 of them: the
        # last draws then share a total far below the first one's.
        cases = np.random.default_rng(2025)
        for case in range(60):
            size = int(cases.integers(200, 700))
            p = cases.random(size)
            kind = case % 4
            if kind == 0:
                light = cases.random(size) >= 0.1
                p[light] *= 10.0 ** -cases.integers(6, 14, int(light.sum()))
            elif kind == 1:
                p = np.round(p * 4) / 4  # quantised ties, some zero
            elif kind == 2:
                p[cases.random(size) < 0.4] = 0.0
            else:
                p[cases.random(size) < 0.5] = 0.0
                p[cases.random(size) < 0.3] *= 1e-17  # far below eps of the total
            p /= p.sum()
            nonzero = int(np.count_nonzero(p))
            # Draw-all on the skewed mix; past the support (the too-few error) every third case.
            count = size if kind == 0 or case % 3 == 0 else int(cases.integers(1, nonzero + 1))
            seed = int(cases.integers(2**32))
            got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            if count > nonzero:
                with pytest.raises(ValueError, match=f"only {nonzero} indices have nonzero probability"):
                    sample_without_replacement(p, count, got_gen)
                # The oracle fails on 0/0 weights, having drawn as many values.
                with np.errstate(invalid="ignore"), pytest.raises(ValueError):
                    self._choice_oracle(p, count, want_gen)
            else:
                got = sample_without_replacement(p, count, got_gen)
                np.testing.assert_array_equal(got, self._choice_oracle(p, count, want_gen), err_msg=f"case {case}")
            assert got_gen.random() == want_gen.random(), f"case {case}"

    def test_exact_step_alone_matches_oracle(self, monkeypatch):
        # A margin wider than the total sends every draw to the exact step.
        monkeypatch.setattr(ensemble_module, "_MARGIN", 2.0)
        cases = np.random.default_rng(7)
        for case in range(40):
            size = int(cases.integers(1, 300))
            p = cases.random(size)
            if case % 2:
                p[cases.random(size) < 0.4] = 0.0
            if not p.any():
                p[0] = 1.0
            p /= p.sum()
            count = int(cases.integers(1, np.count_nonzero(p) + 1))
            seed = int(cases.integers(2**32))
            got = sample_without_replacement(p, count, seed)
            np.testing.assert_array_equal(got, self._choice_oracle(p, count, np.random.default_rng(seed)))

    def test_weight_below_rounding_of_the_total(self):
        # 1e-20 vanishes from the running prefix sum (0.5 + 1e-20 == 0.5), yet
        # once both halves are drawn it is the only weight left and is drawn.
        p = np.array([0.5, 1e-20, 0.5])
        for seed in range(20):
            got = sample_without_replacement(p, 3, seed)
            np.testing.assert_array_equal(got, self._choice_oracle(p, 3, np.random.default_rng(seed)))
            assert got[-1] == 1

    def test_value_on_a_boundary_goes_right(self):
        # p = (u, 1 - u) puts the boundary exactly at the first random(): like
        # Generator.choice, a value equal to the cumulative mass picks the next index.
        for seed in range(10):
            u = np.random.default_rng(seed).random()
            got = sample_without_replacement([u, 1.0 - u], 1, seed)
            np.testing.assert_array_equal(got, [1])
            np.testing.assert_array_equal(got, self._choice_oracle(np.array([u, 1.0 - u]), 1, np.random.default_rng(seed)))

    @pytest.mark.parametrize("count", [2.5, True, 1.0])
    def test_count_not_an_integer(self, count):
        with pytest.raises(ValueError, match="integer count >= 1"):
            sample_without_replacement([0.5, 0.5], count, 0)

    def test_numpy_integer_count(self):
        np.testing.assert_array_equal(
            sample_without_replacement([0.5, 0.5], np.int64(2), 3), sample_without_replacement([0.5, 0.5], 2, 3)
        )

    def test_zero_support_exhaustion(self):
        with pytest.raises(ValueError, match="only 2 indices have nonzero probability"):
            sample_without_replacement([0.5, 0.5, 0.0, 0.0], 3, 0)

    @pytest.mark.parametrize(
        "probs,count",
        [
            ([0.5, 0.6], 1),  # does not sum to 1
            ([0.5, -0.5, 1.0], 1),  # negative mass
            ([[0.5, 0.5]], 1),  # not 1-D
            ([0.5, 0.5], 0),  # empty draw
            ([0.5, 0.5], 3),  # more than available
            ([float("nan")] * 3, 2),  # NaN mass
            ([float("nan"), 0.5, 0.5], 1),  # NaN among valid mass
        ],
    )
    def test_rejects_bad_arguments(self, probs, count):
        with pytest.raises(ValueError):
            sample_without_replacement(probs, count, 0)


class TestTrainEnsembleShape:
    @pytest.mark.parametrize(
        "q,ratio",
        [(0, 0.95), (3, 0.0), (3, 1.5), (3, -0.1)],
    )
    def test_rejects_bad_arguments(self, f1, q, ratio):
        with pytest.raises(ValueError):
            train_ensemble(f1, lambda sub: fit_wknn(sub, 1, 0.8), q, ratio, SamplingStrategy("uniform"))

    @pytest.mark.parametrize("q", [2.5, True])
    def test_q_not_an_integer(self, f1, q):
        with pytest.raises(ValueError, match="integer q >= 1"):
            train_ensemble(f1, lambda sub: fit_wknn(sub, 1, 0.8), q, 0.95, SamplingStrategy("uniform"))

    def test_member_subset_sizes(self):
        ds = random_dataset(54, 26, seed=1)
        ens = train_ensemble(ds, lambda sub: fit_wknn(sub, 3, 0.8), 3, 0.95, SamplingStrategy("uniform"))
        assert ens.q == 3
        for mem in ens.members:
            # round(54 * 0.95) = 51, round(26 * 0.95) = 25
            assert mem.drug_subset.shape == (51,)
            assert mem.target_subset.shape == (25,)
            assert len(set(mem.drug_subset.tolist())) == 51
            assert len(set(mem.target_subset.tolist())) == 25

    def test_tiny_ratio_clamps_to_one_entity(self):
        ds = random_dataset(8, 6, seed=2)
        ens = train_ensemble(ds, lambda sub: fit_wknn(sub, 1, 0.8), 2, 0.01, SamplingStrategy("uniform"))
        for mem in ens.members:
            assert mem.drug_subset.shape == (1,)
            assert mem.target_subset.shape == (1,)

    def test_full_ratio_draws_permutations(self, f1):
        ens = train_ensemble(f1, lambda sub: fit_wknn(sub, 1, 0.8), 4, 1.0, SamplingStrategy("global"))
        for mem in ens.members:
            np.testing.assert_array_equal(np.sort(mem.drug_subset), np.arange(3))
            np.testing.assert_array_equal(np.sort(mem.target_subset), np.arange(2))

    def test_base_kind_labels(self, f1):
        wknn = train_ensemble(f1, lambda sub: fit_wknn(sub, 1, 0.8), 1, 1.0, SamplingStrategy("uniform"))
        wknnir = train_ensemble(f1, lambda sub: fit_wknnir(sub, 1, 0.8), 1, 1.0, SamplingStrategy("uniform"))
        # The ensemble records no base model kind; a wknn member is the one
        # model class with Y as its matrices and zero LI.
        for mem in wknn.members + wknnir.members:
            assert type(mem.model) is WkNNIRModel
        for mem in wknn.members:
            assert np.shares_memory(mem.model.y_drug, mem.model.dataset.interactions)
            assert (mem.model.li_drug, mem.model.li_target) == (0.0, 0.0)
        for mem in wknnir.members:
            assert not np.shares_memory(mem.model.y_drug, mem.model.dataset.interactions)

    def test_deterministic_given_seed(self):
        ds = random_dataset(10, 8, seed=3)
        make = lambda: train_ensemble(
            ds, lambda sub: fit_wknn(sub, 2, 0.7), 5, 0.8, SamplingStrategy("global"), seed=11
        )
        a, b = make(), make()
        profiles = np.random.default_rng(4).random((3, 10))
        for ma, mb in zip(a.members, b.members):
            np.testing.assert_array_equal(ma.drug_subset, mb.drug_subset)
            np.testing.assert_array_equal(ma.target_subset, mb.target_subset)
        np.testing.assert_array_equal(a.predict_s2(profiles), b.predict_s2(profiles))

    def test_member_streams_are_a_reproducible_prefix(self):
        # Growing q keeps the earlier members' samples unchanged.
        ds = random_dataset(10, 8, seed=5)
        factory = lambda sub: fit_wknn(sub, 2, 0.7)
        small = train_ensemble(ds, factory, 3, 0.8, SamplingStrategy("uniform"), seed=9)
        large = train_ensemble(ds, factory, 6, 0.8, SamplingStrategy("uniform"), seed=9)
        for ms, ml in zip(small.members, large.members):
            np.testing.assert_array_equal(ms.drug_subset, ml.drug_subset)
            np.testing.assert_array_equal(ms.target_subset, ml.target_subset)

    def test_member_predictions_do_not_depend_on_draw_order(self, monkeypatch):
        # The golden tie-heavy set: were member-local indices in draw order,
        # tied similarities would break by the order of the draw.
        ds = generate.make_dataset("ties")
        dp = generate.query_profiles("ties", ds.n)
        tp = generate.query_profiles("ties", ds.m)

        def scores():
            out = []
            for k in generate.K_VALUES:
                for eta in generate.ETA_VALUES:
                    ens = generate.fit(ds, "ensemble", k, eta)
                    out += [ens.predict_s2(dp), ens.predict_s3(tp), ens.predict_s4(dp, tp)]
            return out

        drawn = scores()
        draw = ensemble_module.sample_without_replacement
        monkeypatch.setattr(ensemble_module, "sample_without_replacement", lambda *args: draw(*args)[::-1])
        for got, want in zip(scores(), drawn, strict=True):
            assert got.tobytes() == want.tobytes()


class TestSingleMemberEquivalence:
    # q=1 with R=1 trains one model on the full dataset, its draw sorted
    # back into the dataset's order, so the ensemble reproduces the plain
    # model bit for bit.

    @pytest.mark.parametrize("factory", [fit_wknn, fit_wknnir])
    def test_matches_base_model(self, factory):
        ds = random_dataset(8, 7, seed=6)
        base = factory(ds, 3, 0.8)
        ens = train_ensemble(ds, lambda sub: factory(sub, 3, 0.8), 1, 1.0, SamplingStrategy("uniform"))
        rng = np.random.default_rng(7)
        dp = rng.random((4, 8))
        tp = rng.random((3, 7))
        np.testing.assert_array_equal(ens.predict_s2(dp), base.predict_s2(dp))
        np.testing.assert_array_equal(ens.predict_s3(tp), base.predict_s3(tp))
        np.testing.assert_array_equal(ens.predict_s4(dp, tp), base.predict_s4(dp, tp))

    def test_scalar_predict_routes_through_batch(self, f1):
        ens = train_ensemble(f1, lambda sub: fit_wknn(sub, 1, 0.8), 3, 1.0, SamplingStrategy("uniform"))
        prof_d = np.array([0.9, 0.1, 0.3])
        prof_t = np.array([0.2, 0.7])
        assert ens.predict(prof_d, 1) == ens.predict_s2(prof_d[None, :])[0, 1]
        assert ens.predict(0, prof_t) == ens.predict_s3(prof_t[None, :])[0, 0]
        assert ens.predict(prof_d, prof_t) == ens.predict_s4(prof_d[None, :], prof_t[None, :])[0, 0]


class TestSelectiveAveraging:
    def test_covered_columns_average_only_contributing_members(self):
        ds = random_dataset(10, 9, seed=8)
        ens = train_ensemble(ds, lambda sub: fit_wknn(sub, 2, 0.8), 8, 0.7, SamplingStrategy("uniform"), seed=1)
        profiles = np.random.default_rng(9).random((3, 10))
        want = exact.Ensemble(ds, ens.members, 2, 0.8, recover=False)
        exact.check(ens.predict_s2(profiles), want.predict_s2(profiles), "ensemble")

    def test_covered_rows_average_only_contributing_members(self):
        ds = random_dataset(9, 10, seed=10)
        ens = train_ensemble(ds, lambda sub: fit_wknn(sub, 2, 0.8), 8, 0.7, SamplingStrategy("uniform"), seed=1)
        profiles = np.random.default_rng(11).random((3, 10))
        want = exact.Ensemble(ds, ens.members, 2, 0.8, recover=False)
        exact.check(ens.predict_s3(profiles), want.predict_s3(profiles), "ensemble")

    def _ensemble_missing_target(self, ds, v):
        # Hand-built members that all skipped target v.
        keep = np.array([j for j in range(ds.m) if j != v])
        members = []
        for i, drugs in enumerate(([0, 1, 2], [2, 0, 1])):
            drugs = np.asarray(drugs)
            targets = np.roll(keep, i)
            members.append(EnsembleMember(fit_wknn(subset(ds, drugs, targets), 2, 0.8), drugs, targets))
        return EnsembleModel(ds, tuple(members))

    def test_uncovered_target_falls_back_to_pairwise_setting(self, f1):
        ens = self._ensemble_missing_target(f1, 1)
        profiles = np.random.default_rng(12).random((4, 3))
        got = ens.predict_s2(profiles)
        # The missing target is answered as if it were a new target, scored
        # from its similarity profile by every member.
        expected = ens.predict_s4(profiles, f1.target_sim[1][None, :])[:, 0]
        np.testing.assert_array_equal(got[:, 1], expected)
        assert np.all((got >= 0) & (got <= 1))

    def test_uncovered_drug_falls_back_to_pairwise_setting(self, f1):
        keep = np.array([1, 2])
        members = []
        for i in range(2):
            drugs = np.roll(keep, i)
            targets = np.array([0, 1])
            members.append(EnsembleMember(fit_wknn(subset(f1, drugs, targets), 1, 0.8), drugs, targets))
        ens = EnsembleModel(f1, tuple(members))
        profiles = np.random.default_rng(13).random((4, 2))
        got = ens.predict_s3(profiles)
        expected = ens.predict_s4(f1.drug_sim[0][None, :], profiles)[0, :]
        np.testing.assert_array_equal(got[:, 0], expected)


class TestEnsembleBounds:
    @pytest.mark.parametrize("kind", ["uniform", "global", "local"])
    def test_predictions_stay_in_unit_interval(self, kind):
        ds = random_dataset(9, 8, seed=14)
        ens = train_ensemble(
            ds, lambda sub: fit_wknnir(sub, 3, 0.8), 6, 0.8, SamplingStrategy(kind, k=2), seed=2
        )
        rng = np.random.default_rng(15)
        dp = rng.random((5, 9))
        tp = rng.random((4, 8))
        for scores in (ens.predict_s2(dp), ens.predict_s3(tp), ens.predict_s4(dp, tp)):
            assert np.all(scores >= 0) and np.all(scores <= 1)

    def test_rejects_wrong_width_profiles(self, f1):
        ens = train_ensemble(f1, lambda sub: fit_wknn(sub, 1, 0.8), 2, 1.0, SamplingStrategy("uniform"))
        with pytest.raises(ValueError):
            ens.predict_s2(np.array([[0.5, 0.5]]))

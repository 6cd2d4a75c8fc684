"""Local-imbalance quantities against the exact referee (``tests/exact.py``)."""

import numpy as np
import pytest

from wknnir import imbalance_report, subset
from wknnir.neighbors import neighbor_table
from conftest import load_datagen, make_dataset, random_dataset, varied_dataset
import exact


def dense_pair_imbalance(ds, k):
    """Per-pair neighborhood disagreement rates at every pair, both sides.

    The dense formula ``imbalance_report`` was first written with, kept as
    the reference: ``drug_pair[i, j]`` is the fraction of drug i's k
    nearest drugs whose label for target j differs from Y[i, j];
    ``target_pair[i, j]`` the same over target j's k nearest targets.
    """
    Y = ds.interactions
    d_idx, _ = neighbor_table(ds.drug_sim, k)
    t_idx, _ = neighbor_table(ds.target_sim, k)
    drug_pair = (Y[d_idx] != Y[:, None, :]).mean(axis=1)
    target_pair = (Y.T[t_idx] != Y.T[:, None, :]).mean(axis=1).T
    return drug_pair, target_pair


def dense_report(ds, k):
    """Every ``ImbalanceReport`` field from the dense pair matrices."""
    drug_pair, target_pair = dense_pair_imbalance(ds, k)
    Y = ds.interactions
    total = Y.sum()
    return {
        "li_drug": float((drug_pair * Y).sum() / total),
        "li_target": float((target_pair * Y).sum() / total),
        "drug_importance": (drug_pair * Y).sum(axis=1),
        "target_importance": (target_pair * Y).sum(axis=0),
    }


class TestPairLocalImbalance:
    def test_f1_hand_values(self, f1):
        drug_pair, _ = dense_pair_imbalance(f1, 1)
        # d0's nearest drug is d1; labels for t0 disagree
        assert drug_pair[0, 0] == 1.0
        # d2's nearest drug is d1; labels for t1 agree
        assert drug_pair[2, 1] == 0.0

    def test_constant_column_gives_zero(self):
        # Three targets, so that k=2 is in range on both sides.
        ds = make_dataset(
            [[1.0, 0.9, 0.3], [0.9, 1.0, 0.5], [0.3, 0.5, 1.0]],
            [[1.0, 0.4, 0.2], [0.4, 1.0, 0.6], [0.2, 0.6, 1.0]],
            [[1, 0, 1], [1, 1, 0], [1, 0, 0]],
        )
        assert np.all(dense_pair_imbalance(ds, 2)[0][:, 0] == 0.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            ds = random_dataset(8, 6, seed)
            k = int(rng.integers(1, 5))
            want = exact.imbalance(ds, k)
            for got, pairs in zip(dense_pair_imbalance(ds, k), (want.drug_pair, want.target_pair)):
                exact.check(got[tuple(zip(*pairs))], list(pairs.values()), "li")

    def test_is_multiple_of_one_over_k(self):
        for seed in range(10):
            ds = random_dataset(7, 7, seed)
            for k in (1, 2, 3):
                value = dense_pair_imbalance(ds, k)[0][3, 4]
                assert 0 <= value <= 1
                assert (value * k) == int(round(value * k))

    def test_k_out_of_range(self, f1):
        with pytest.raises(ValueError, match="out of range .* drug side"):
            imbalance_report(f1, 3)
        with pytest.raises(ValueError, match="out of range .* target side"):
            imbalance_report(f1, 2)

    @pytest.mark.parametrize("n,m,message", [
        (1, 4, "local imbalance needs at least 2 drugs, got 1"),
        (4, 1, "local imbalance needs at least 2 targets, got 1"),
    ])
    def test_one_entity_side_names_the_count(self, n, m, message):
        ds = subset(random_dataset(4, 4, seed=2, density=1.0), np.arange(n), np.arange(m))
        with pytest.raises(ValueError, match=message):
            imbalance_report(ds, 1)

    @pytest.mark.parametrize("k", [1.5, True])
    def test_k_not_an_integer(self, f1, k):
        with pytest.raises(ValueError, match="integer k >= 1"):
            imbalance_report(f1, k)


class TestDatasetLocalImbalance:
    def test_f1_hand_values(self, f1):
        report = imbalance_report(f1, 1)
        assert report.li_drug == 0.75
        assert report.li_target == 0.5

    def test_matches_oracle(self):
        for seed in range(15):
            ds = random_dataset(9, 7, seed)
            got, want = imbalance_report(ds, 3), exact.imbalance(ds, 3)
            exact.check([got.li_drug, got.li_target], [want.li_drug, want.li_target], "li")

    def test_no_interactions_error(self):
        ds = make_dataset(
            [[1.0, 0.5], [0.5, 1.0]],
            [[1.0, 0.5], [0.5, 1.0]],
            [[0, 0], [0, 0]],
        )
        with pytest.raises(ValueError, match="no interactions"):
            imbalance_report(ds, 1)

    def test_in_unit_interval(self):
        for seed in range(10):
            ds = random_dataset(10, 8, seed, density=0.5)
            report = imbalance_report(ds, 4)
            assert 0 <= report.li_drug <= 1
            assert 0 <= report.li_target <= 1


class TestEntityImportance:
    def test_f1_hand_values(self, f1):
        report = imbalance_report(f1, 1)
        np.testing.assert_array_equal(report.drug_importance, [1, 1, 1])
        np.testing.assert_array_equal(report.target_importance, [1, 1])

    def test_matches_oracle(self):
        for seed in range(10):
            ds = random_dataset(8, 6, seed)
            got, want = imbalance_report(ds, 2), exact.imbalance(ds, 2)
            exact.check(got.drug_importance, want.drug_importance, "importance")
            exact.check(got.target_importance, want.target_importance, "importance")

    def test_no_interactions_means_zero(self):
        ds = make_dataset(
            [[1.0, 0.9, 0.3], [0.9, 1.0, 0.5], [0.3, 0.5, 1.0]],
            [[1.0, 0.4], [0.4, 1.0]],
            [[0, 0], [1, 1], [1, 0]],
        )
        assert imbalance_report(ds, 1).drug_importance[0] == 0.0

    def test_all_ones_dataset_gives_zero(self):
        ds = make_dataset(
            [[1.0, 0.9, 0.3], [0.9, 1.0, 0.5], [0.3, 0.5, 1.0]],
            [[1.0, 0.4, 0.2], [0.4, 1.0, 0.6], [0.2, 0.6, 1.0]],
            [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
        )
        report = imbalance_report(ds, 2)
        np.testing.assert_array_equal(report.drug_importance, [0, 0, 0])
        np.testing.assert_array_equal(report.target_importance, [0, 0, 0])

    def test_bounded_by_row_sum(self):
        for seed in range(10):
            ds = random_dataset(9, 7, seed, density=0.4)
            drug_imp = imbalance_report(ds, 3).drug_importance
            assert np.all(drug_imp <= ds.interactions.sum(axis=1) + 1e-12)


class TestPermutationInvariance:
    def test_drug_permutation_permutes_importance(self):
        ds = random_dataset(8, 6, 21)
        rng = np.random.default_rng(5)
        perm = rng.permutation(8)
        permuted = make_dataset(
            ds.drug_sim[np.ix_(perm, perm)], ds.target_sim, ds.interactions[perm]
        )
        # The exact values do not depend on the order of the entities.
        want = exact.imbalance(ds, 3)
        for got, order in ((imbalance_report(ds, 3), np.arange(8)), (imbalance_report(permuted, 3), perm)):
            exact.check([got.li_drug, got.li_target], [want.li_drug, want.li_target], "li")
            exact.check(got.drug_importance, [want.drug_importance[i] for i in order], "importance")


class TestImbalanceReport:
    def test_report_consistent_with_parts(self):
        for seed in range(5):
            ds = random_dataset(8, 6, seed)
            report = imbalance_report(ds, 2)
            drug_pair, target_pair = dense_pair_imbalance(ds, 2)
            Y = ds.interactions
            assert report.li_drug == (drug_pair * Y).sum() / Y.sum()
            assert report.li_target == (target_pair * Y).sum() / Y.sum()
            np.testing.assert_array_equal(report.drug_importance, (drug_pair * Y).sum(axis=1))
            np.testing.assert_array_equal(report.target_importance, (target_pair * Y).sum(axis=0))

    def test_bit_identical_to_dense_formula(self):
        # The report computes pair imbalance at interacting pairs only.
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 250:
            ds = varied_dataset(rng)
            if min(ds.n, ds.m) < 2 or ds.interactions.sum() == 0:
                continue
            for k in {1, int(rng.integers(1, min(ds.n, ds.m))), min(ds.n, ds.m) - 1}:
                got, want = imbalance_report(ds, k), dense_report(ds, k)
                for name in ("li_drug", "li_target"):
                    assert np.float64(getattr(got, name)).tobytes() == np.float64(want[name]).tobytes()
                for name in ("drug_importance", "target_importance"):
                    assert getattr(got, name).tobytes() == want[name].tobytes()
            checked += 1


class TestNoisySimilarityRaisesItsImbalance:
    """The paper's LI claim on planted data: the less reliable similarity
    space has the higher local imbalance.

    At the IC shape, one side's similarity is mixed 60% with symmetric
    uniform noise. Over seeds 1-30 the noised side's LI led by at least
    0.066 (drug side noised) and 0.039 (target side noised). At the GPCR
    and NR shapes the sign flips on some drug-noised seeds, so those
    shapes are not asserted.
    """

    @pytest.mark.parametrize("side", ["drug", "target"])
    def test_noised_side_has_higher_li(self, side):
        datagen = load_datagen()
        n, m, count = datagen.SHAPES["ic"]
        for seed in range(1, 31):
            drug_sim, target_sim, interactions = datagen.generate(n, m, count, seed)
            sims = {"drug": drug_sim, "target": target_sim}
            noise = np.random.default_rng((seed, 1)).random(sims[side].shape)
            sims[side] = 0.4 * sims[side] + 0.6 * (noise + noise.T) / 2
            np.fill_diagonal(sims[side], 1.0)
            report = imbalance_report(make_dataset(sims["drug"], sims["target"], interactions), 5)
            noisy, clean = (report.li_drug, report.li_target) if side == "drug" else (report.li_target, report.li_drug)
            assert noisy > clean, f"seed {seed}: li {noisy} on the noised {side} side, {clean} on the other"

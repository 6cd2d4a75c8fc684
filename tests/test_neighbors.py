"""Neighbor selection against the exact referee's full sort (``exact.rank``)."""

import numpy as np
import pytest

from wknnir import DtiDataset, EnsembleMember, EnsembleModel, subset
from wknnir.neighbors import neighbor_table, top_k
import exact


def assert_matches_oracle(sim, k, check_rows=None):
    """top_k on every row, and neighbor_table with self excluded, vs ``exact.rank``.

    ``check_rows`` limits the rows compared (all by default); the whole
    matrix is still ranked.
    """
    rows = range(sim.shape[0]) if check_rows is None else check_rows
    idx, vals = top_k(sim, k)
    assert idx.shape == vals.shape == (sim.shape[0], min(k, sim.shape[1]))
    for i in rows:
        want = exact.rank(sim[i].tolist(), k)
        np.testing.assert_array_equal(idx[i], want)
        np.testing.assert_array_equal(vals[i], sim[i, want])
    if sim.shape[0] == sim.shape[1] and sim.shape[0] > 1:
        idx, vals = neighbor_table(sim, k)
        for i in rows:
            want = exact.rank(sim[i].tolist(), k, exclude=i)
            np.testing.assert_array_equal(idx[i], want)
            np.testing.assert_array_equal(vals[i], sim[i, want])


def quantised_similarity(n, seed):
    """Symmetric Gaussian-kernel similarity rounded to one decimal, zero below 0.3.

    The tie-heavy recipe of the benchmark's ``ties=True`` data: many exact
    zeros and repeated values in every row.
    """
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 6))
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    sim = np.round(np.exp(-d2 / np.median(d2[d2 > 0])) * 10) / 10
    sim[sim < 0.3] = 0.0
    sim = (sim + sim.T) / 2
    np.fill_diagonal(sim, 1.0)
    return sim


class TestKnnOracle:
    def test_matches_brute_force_on_1000_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            rows = int(rng.integers(1, 6))
            size = int(rng.integers(2, 40))
            shape = (size, size) if rng.random() < 0.5 else (rows, size)
            # discrete values half the time to force ties
            if rng.random() < 0.5:
                sims = rng.integers(0, 5, shape) / 4.0
            else:
                sims = rng.random(shape)
            assert_matches_oracle(sims, int(rng.integers(1, size + 1)))

    def test_tie_broken_by_ascending_index(self):
        idx, sims = top_k(np.array([[0.9, 0.2, 0.9, 0.5]]), 2)
        np.testing.assert_array_equal(idx, [[0, 2]])
        np.testing.assert_array_equal(sims, [[0.9, 0.9]])

    def test_exclusion(self):
        # Self similarity 1.0 would rank first; neighbor_table leaves it out.
        idx, _ = neighbor_table(np.array([[1.0, 0.8, 0.4], [0.8, 1.0, 0.4], [0.4, 0.4, 1.0]]), 2)
        np.testing.assert_array_equal(idx[0], [1, 2])

    def test_f1_drug2_self_excluded(self, f1):
        idx, sims = neighbor_table(f1.drug_sim, 1)
        np.testing.assert_array_equal(idx[2], [1])
        np.testing.assert_array_equal(sims[2], [0.4])

    def test_k_capped_at_available(self):
        idx, _ = top_k(np.array([[0.3, 0.1]]), 10)
        np.testing.assert_array_equal(idx, [[0, 1]])
        idx, _ = neighbor_table(np.eye(3), 10)
        assert idx.shape == (3, 2)

    def test_zero_similarities_kept(self):
        idx, _ = top_k(np.zeros((1, 3)), 2)
        np.testing.assert_array_equal(idx, [[0, 1]])

    def test_nothing_selectable(self):
        # An entity is never its own neighbor: a side of 0 or 1 has an empty neighborhood.
        for n in (0, 1):
            idx, sims = neighbor_table(np.ones((n, n)), 3)
            assert idx.shape == sims.shape == (n, 0)
            assert idx.dtype == np.intp and sims.dtype == float

    def test_k_below_one(self):
        for rank in (neighbor_table, top_k):
            for k in (0, -1):
                with pytest.raises(ValueError, match="k >= 1"):
                    rank(np.eye(2), k)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
    def test_k_not_an_integer(self, k):
        for rank in (neighbor_table, top_k):
            with pytest.raises(ValueError, match="integer k >= 1"):
                rank(np.eye(4), k)

    def test_pure_function(self):
        sims = np.array([[0.5, 0.9, 0.1], [0.9, 0.5, 0.2], [0.1, 0.2, 0.5]])
        a = neighbor_table(sims, 2)
        b = neighbor_table(sims, 2)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(top_k(sims, 2)[0], top_k(sims, 2)[0])
        np.testing.assert_array_equal(sims, [[0.5, 0.9, 0.1], [0.9, 0.5, 0.2], [0.1, 0.2, 0.5]])


class TestRealisticWidths:
    # Widths of the published benchmarks (IC folds 150-210, E up to 664)
    # and k up to the grid's largest neighbor_table request.

    @pytest.mark.parametrize("k", [1, 5, 10])
    @pytest.mark.parametrize("width", [150, 347, 700])
    def test_distinct_values(self, width, k):
        rng = np.random.default_rng(width + k)
        assert_matches_oracle(rng.random((5, width)), k)
        sim = rng.random((width, width))
        assert_matches_oracle(sim, k, check_rows=rng.choice(width, 6, replace=False))

    @pytest.mark.parametrize("k", [1, 5, 10])
    @pytest.mark.parametrize("width", [150, 445])
    def test_quantised_ties(self, width, k):
        sim = quantised_similarity(width, seed=width + k)
        assert_matches_oracle(sim, k, check_rows=range(0, width, 7))

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_half_the_row_ties_with_kth_value(self, k):
        # Most rows have distinct values; row 1 is all zero and row 2 ties
        # 0.5 in 60% of its columns, so most of both rows are candidates.
        rng = np.random.default_rng(k)
        sim = rng.random((6, 300))
        sim[1] = 0.0
        sim[2, rng.random(300) < 0.6] = 0.5
        sim[2, :3] = 0.9
        assert_matches_oracle(sim, k)

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_ties_under_half_the_row(self, k):
        # Ties at or above the k-th value in up to 40% of a row: rows with
        # unequal numbers of candidates.
        rng = np.random.default_rng(10 + k)
        sim = rng.random((6, 300)) / 2
        sim[0, rng.random(300) < 0.4] = 0.75  # a wide tie at the top
        sim[1, 50:80] = 0.6  # a tie straddling the k-th place
        sim[1, 100 : 100 + k - 1] = 0.9
        sim[3] = np.round(sim[3] * 8) / 8  # coarse values
        sim[3, :k] = 1.0
        assert_matches_oracle(sim, k)

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_negative_values_with_ties(self, k):
        # Below-zero similarities, coarse in half the rows: ties of unequal
        # width among candidates that are all below zero.
        rng = np.random.default_rng(40 + k)
        sim = -rng.random((6, 250))
        sim[::2] = np.round(sim[::2] * 20) / 20
        assert_matches_oracle(sim, k)

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_all_zero_matrix(self, k):
        assert_matches_oracle(np.zeros((160, 160)), k, check_rows=[0, 1, 80, 159])

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_fewer_than_k_finite_values(self, k):
        rng = np.random.default_rng(20 + k)
        sim = rng.random((5, 200))
        sim[0, 3:] = np.nan  # 3 values, then NaN by ascending index
        sim[1, :] = np.nan
        sim[2, rng.random(200) < 0.5] = np.nan  # NaN ranks last, but k is within the finite ones
        assert_matches_oracle(sim, k)
        assert_matches_oracle(sim[2:], k)

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_untied_tied_all_zero_and_nan_rows_together(self, k):
        # One row of each kind in one matrix: distinct values, a tie at
        # the k-th value, all zero, and fewer than k non-NaN values.
        rng = np.random.default_rng(50 + k)
        sim = rng.random((4, 200))
        sim[1, rng.random(200) < 0.2] = sim[1].max()
        sim[2] = 0.0
        sim[3, k // 2 :] = np.nan
        assert_matches_oracle(sim, k)

    @pytest.mark.parametrize("shape", [(0, 7), (0, 0), (4, 0)])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_empty_inputs_keep_their_shapes(self, shape, k):
        idx, vals = top_k(np.zeros(shape), k)
        assert idx.shape == vals.shape == (shape[0], min(k, shape[1]))
        assert idx.dtype == np.intp and vals.dtype == float

    @pytest.mark.parametrize("extra", [0, 1, 50])
    def test_k_at_least_columns(self, extra):
        rng = np.random.default_rng(30 + extra)
        sim = np.round(rng.random((20, 150)) * 3) / 3
        sim[4, ::2] = np.nan
        assert_matches_oracle(sim, 150 + extra)

    def test_fortran_order_input(self):
        sim = np.asfortranarray(quantised_similarity(160, seed=3))
        assert_matches_oracle(sim, 6, check_rows=range(0, 160, 9))


class TestNeighborTable:
    def test_matches_per_row_knn(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            sim = rng.random((n, n))
            k = int(rng.integers(1, n))
            idx, sims = neighbor_table(sim, k)
            for i in range(n):
                want = exact.rank(sim[i].tolist(), k, exclude=i)
                np.testing.assert_array_equal(idx[i], want)
                np.testing.assert_array_equal(sims[i], sim[i, want])

    def test_self_never_included(self):
        rng = np.random.default_rng(1)
        sim = rng.random((8, 8))
        np.fill_diagonal(sim, 1.0)
        idx, _ = neighbor_table(sim, 7)
        for i in range(8):
            assert i not in idx[i]

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (4,)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            neighbor_table(np.ones(shape), 1)


class _Recorder:
    """Member model that answers zeros and records the profiles it is shown."""

    def __init__(self, width):
        self.width = width
        self.seen = []

    def predict_s2(self, profiles):
        self.seen.append(np.array(profiles))
        return np.zeros((profiles.shape[0], self.width))


def _one_member(ds, drug_subset, model):
    targets = np.arange(ds.m)
    return EnsembleModel(ds, (EnsembleMember(model, np.asarray(drug_subset), targets),))


def _dataset(n):
    sim = np.eye(n)
    return DtiDataset([f"d{i}" for i in range(n)], ["t0"], sim, [[1.0]], np.ones((n, 1)))


def shown_profiles(profiles, drug_subset):
    """The profiles an ensemble member sees: restricted to its sample, in sample order."""
    profiles = np.atleast_2d(profiles)
    recorder = _Recorder(1)
    _one_member(_dataset(profiles.shape[1]), drug_subset, recorder).predict_s2(profiles)
    return recorder.seen[0]


class TestProject:
    # Ensemble members score profiles projected onto their own sample.

    def test_hand_example(self):
        np.testing.assert_array_equal(shown_profiles([0.1, 0.2, 0.3, 0.4, 0.5], [0, 1, 3]), [[0.1, 0.2, 0.4]])

    def test_identity(self):
        sims = np.array([0.4, 0.2, 0.9])
        np.testing.assert_array_equal(shown_profiles(sims, [0, 1, 2]), [sims])

    def test_order_follows_subset(self):
        np.testing.assert_array_equal(shown_profiles([0.9, 0.0, 0.6], [2, 0]), [[0.6, 0.9]])

    def test_composition(self):
        # A member that is itself an ensemble projects again, onto a[b].
        rng = np.random.default_rng(3)
        sims = rng.random((1, 10))
        a = np.array([7, 2, 5, 0, 9])
        b = np.array([3, 1])
        outer_ds = _dataset(10)
        recorder = _Recorder(1)
        inner = _one_member(subset(outer_ds, a, [0]), b, recorder)
        _one_member(outer_ds, a, inner).predict_s2(sims)
        np.testing.assert_array_equal(recorder.seen[0], shown_profiles(sims, a[b]))

    def test_matrix_rows(self):
        sims = np.arange(12.0).reshape(3, 4) / 12
        np.testing.assert_array_equal(shown_profiles(sims, [3, 1]), sims[:, [3, 1]])

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            shown_profiles([0.1, 0.2], [2])

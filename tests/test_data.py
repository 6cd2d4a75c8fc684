"""Dataset loading, validation, round-trip, and summary statistics."""

from fractions import Fraction

import numpy as np
import pytest

from wknnir import (
    DatasetError,
    DtiDataset,
    dataset_stats,
    load_dataset,
    save_dataset,
    subset,
    validate_dataset,
)
from conftest import F1_DRUG_SIM, F1_INTERACTIONS, F1_TARGET_SIM, make_dataset, random_dataset


def write_f1(tmp_path):
    ds = make_dataset(F1_DRUG_SIM, F1_TARGET_SIM, F1_INTERACTIONS)
    paths = (tmp_path / "y.tsv", tmp_path / "sd.tsv", tmp_path / "st.tsv")
    save_dataset(ds, *paths)
    return ds, paths


class TestDtiDataset:
    def test_arrays_are_read_only(self, f1):
        for arr in (f1.drug_sim, f1.target_sim, f1.interactions):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.5

    def test_dims(self, f1):
        assert (f1.n, f1.m) == (3, 2)

    def test_subset_preserves_order(self, f1):
        sub = subset(f1, [2, 0], [1])
        assert sub.drug_ids == ("d2", "d0")
        assert sub.target_ids == ("t1",)
        np.testing.assert_array_equal(sub.interactions, [[1], [0]])
        np.testing.assert_array_equal(sub.drug_sim, [[1.0, 0.2], [0.2, 1.0]])

    @pytest.mark.parametrize("order", ["ascending", "drawn", "empty"])
    def test_subset_equals_outer_index_gather(self, order):
        # Fold training indices are ascending; ensemble samples arrive in draw order.
        ds = random_dataset(30, 25, seed=5)
        rng = np.random.default_rng(6)
        drugs = rng.choice(30, 0 if order == "empty" else 17, replace=False)
        targets = rng.choice(25, 11, replace=False)
        if order == "ascending":
            drugs, targets = np.sort(drugs), np.sort(targets)
        sub = subset(ds, drugs, targets)
        np.testing.assert_array_equal(sub.drug_sim, ds.drug_sim[np.ix_(drugs, drugs)])
        np.testing.assert_array_equal(sub.target_sim, ds.target_sim[np.ix_(targets, targets)])
        np.testing.assert_array_equal(sub.interactions, ds.interactions[np.ix_(drugs, targets)])
        assert sub.drug_ids == tuple(ds.drug_ids[i] for i in drugs)
        for arr in (sub.drug_sim, sub.target_sim, sub.interactions):
            assert not arr.flags.writeable and arr.flags.c_contiguous
            assert not np.shares_memory(arr, ds.drug_sim) and not np.shares_memory(arr, ds.interactions)


class TestValidateDataset:
    def test_valid_fixture_is_clean(self, f1):
        assert validate_dataset(f1) == []

    def test_bad_diagonal_is_error(self):
        sim = [[0.9, 0.8, 0.2], [0.8, 1.0, 0.4], [0.2, 0.4, 1.0]]
        findings = validate_dataset(make_dataset(sim, F1_TARGET_SIM, F1_INTERACTIONS))
        assert [f.severity for f in findings] == ["error"]
        assert "diagonal" in findings[0].message

    def test_asymmetry_is_warning(self):
        sim = [[1.0, 0.8, 0.2], [0.7, 1.0, 0.4], [0.2, 0.4, 1.0]]
        findings = validate_dataset(make_dataset(sim, F1_TARGET_SIM, F1_INTERACTIONS))
        assert [f.severity for f in findings] == ["warning"]
        assert "asymmetric" in findings[0].message

    def test_out_of_range_similarity(self):
        sim = [[1.0, 1.2, 0.2], [1.2, 1.0, 0.4], [0.2, 0.4, 1.0]]
        findings = validate_dataset(make_dataset(sim, F1_TARGET_SIM, F1_INTERACTIONS))
        assert any(f.severity == "error" and "[0, 1]" in f.message for f in findings)

    def test_non_binary_interactions(self):
        findings = validate_dataset(make_dataset(F1_DRUG_SIM, F1_TARGET_SIM, [[1, 0.5], [0, 1], [1, 1]]))
        assert any("non-binary" in f.message for f in findings)

    def test_duplicate_ids(self):
        ds = DtiDataset(("a", "a", "b"), ("t0", "t1"), F1_DRUG_SIM, F1_TARGET_SIM, F1_INTERACTIONS)
        assert any("duplicate drug" in f.message for f in validate_dataset(ds))

    def test_shape_mismatch(self):
        ds = DtiDataset(("a", "b"), ("t0", "t1"), [[1, 0.5], [0.5, 1]], F1_TARGET_SIM, [[1, 0], [0, 1], [1, 1]])
        assert any(f.severity == "error" for f in validate_dataset(ds))

    def test_duplicate_target_ids(self):
        ds = DtiDataset(("d0", "d1", "d2"), ("t", "t"), F1_DRUG_SIM, F1_TARGET_SIM, F1_INTERACTIONS)
        assert [f.message for f in validate_dataset(ds)] == ["duplicate target IDs"]

    @pytest.mark.parametrize("side", ["drug", "target"])
    def test_non_square_similarity(self, side):
        sims = {"drug": F1_DRUG_SIM, "target": F1_TARGET_SIM, side: np.ones((2, 3))}
        ds = DtiDataset(("d0", "d1", "d2"), ("t0", "t1"), sims["drug"], sims["target"], F1_INTERACTIONS)
        findings = validate_dataset(ds)
        assert [f.message for f in findings] == [f"{side} similarity matrix is not square: shape (2, 3)"]

    @pytest.mark.parametrize("side", ["drug", "target"])
    def test_wrong_size_similarity(self, side):
        sims = {"drug": F1_DRUG_SIM, "target": F1_TARGET_SIM, side: np.eye(4)}
        ds = DtiDataset(("d0", "d1", "d2"), ("t0", "t1"), sims["drug"], sims["target"], F1_INTERACTIONS)
        count = 3 if side == "drug" else 2
        findings = validate_dataset(ds)
        assert [f.message for f in findings] == [f"{side} similarity side 4 does not match {side} count {count}"]

    @pytest.mark.parametrize("n,m", [(0, 2), (3, 0)])
    def test_empty_side(self, n, m):
        ds = DtiDataset(
            tuple(f"d{i}" for i in range(n)), tuple(f"t{j}" for j in range(m)), np.eye(n), np.eye(m), np.zeros((n, m))
        )
        findings = validate_dataset(ds)
        assert [f.severity for f in findings] == ["error"]
        assert f"(n={n}, m={m})" in findings[0].message


class TestLoadDataset:
    def test_round_trip_identity(self, tmp_path, f1):
        ds, paths = write_f1(tmp_path)
        loaded = load_dataset(*paths)
        assert loaded.drug_ids == ds.drug_ids
        assert loaded.target_ids == ds.target_ids
        np.testing.assert_array_equal(loaded.drug_sim, ds.drug_sim)
        np.testing.assert_array_equal(loaded.target_sim, ds.target_sim)
        np.testing.assert_array_equal(loaded.interactions, ds.interactions)

    def test_round_trip_bytes(self, tmp_path):
        # write -> load -> write must reproduce the files byte for byte
        _, paths = write_f1(tmp_path)
        loaded = load_dataset(*paths)
        out = (tmp_path / "y2.tsv", tmp_path / "sd2.tsv", tmp_path / "st2.tsv")
        save_dataset(loaded, *out)
        for a, b in zip(paths, out):
            assert a.read_bytes() == b.read_bytes()

    def test_random_round_trip(self, tmp_path):
        for seed in range(5):
            ds = random_dataset(7, 5, seed)
            paths = (tmp_path / f"y{seed}", tmp_path / f"sd{seed}", tmp_path / f"st{seed}")
            save_dataset(ds, *paths)
            loaded = load_dataset(*paths)
            np.testing.assert_array_equal(loaded.interactions, ds.interactions)
            np.testing.assert_array_equal(loaded.drug_sim, ds.drug_sim)
            assert validate_dataset(loaded) == []

    def test_target_rows_orientation(self, tmp_path, f1):
        from wknnir.data import write_matrix

        _, paths = write_f1(tmp_path)
        flipped = tmp_path / "y_t.tsv"
        write_matrix(flipped, f1.interactions.T, f1.target_ids, f1.drug_ids)
        loaded = load_dataset(flipped, paths[1], paths[2], orientation="target-rows")
        np.testing.assert_array_equal(loaded.interactions, f1.interactions)
        assert loaded.drug_ids == f1.drug_ids

    def test_similarity_files_reordered_by_id(self, tmp_path, f1):
        from wknnir.data import write_matrix

        _, paths = write_f1(tmp_path)
        order = [2, 0, 1]
        shuffled = tmp_path / "sd_shuffled.tsv"
        ids = [f1.drug_ids[i] for i in order]
        write_matrix(shuffled, f1.drug_sim[np.ix_(order, order)], ids, ids)
        loaded = load_dataset(paths[0], shuffled, paths[2])
        np.testing.assert_array_equal(loaded.drug_sim, f1.drug_sim)

    def test_non_binary_value_rejected(self, tmp_path):
        _, paths = write_f1(tmp_path)
        text = paths[0].read_text().replace("\t1\t0", "\t0.5\t0")
        paths[0].write_text(text)
        with pytest.raises(DatasetError, match="non-binary"):
            load_dataset(*paths)

    def test_dimension_mismatch_rejected(self, tmp_path):
        _, paths = write_f1(tmp_path)
        lines = paths[0].read_text().splitlines()
        lines[1] += "\t1"
        paths[0].write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="dimension mismatch"):
            load_dataset(*paths)

    def test_id_mismatch_rejected(self, tmp_path):
        _, paths = write_f1(tmp_path)
        paths[1].write_text(paths[1].read_text().replace("d0", "dX"))
        with pytest.raises(DatasetError, match="IDs do not match"):
            load_dataset(*paths)

    def test_missing_value_rejected(self, tmp_path):
        _, paths = write_f1(tmp_path)
        paths[2].write_text(paths[2].read_text().replace("0.5", ""))
        with pytest.raises(DatasetError, match="missing value"):
            load_dataset(*paths)

    def test_non_numeric_rejected(self, tmp_path):
        _, paths = write_f1(tmp_path)
        paths[1].write_text(paths[1].read_text().replace("0.8", "abc"))
        with pytest.raises(DatasetError, match="non-numeric"):
            load_dataset(*paths)

    def test_nan_similarity_rejected(self, tmp_path):
        # "nan" parses as a float, so the range check itself must catch it.
        _, paths = write_f1(tmp_path)
        paths[1].write_text(paths[1].read_text().replace("0.8", "nan"))
        with pytest.raises(DatasetError, match="drug similarity values outside"):
            load_dataset(*paths)

    @pytest.mark.parametrize("side", ["drug", "target"])
    def test_duplicate_interaction_ids_rejected(self, tmp_path, side):
        _, paths = write_f1(tmp_path)
        text = paths[0].read_text()
        text = text.replace("\nd1\t", "\nd0\t") if side == "drug" else text.replace("\tt1\n", "\tt0\n", 1)
        paths[0].write_text(text)
        with pytest.raises(DatasetError, match=f"duplicate {side} IDs"):
            load_dataset(*paths)

    @pytest.mark.parametrize("which", [1, 2])
    def test_similarity_row_and_column_ids_differ_rejected(self, tmp_path, which):
        # Same IDs in a different order: rows and columns must list them alike.
        _, paths = write_f1(tmp_path)
        header, *rows = paths[which].read_text().splitlines()
        ids = header.split("\t")[1:]
        paths[which].write_text("\n".join(["\t".join(["", *ids[::-1]]), *rows]) + "\n")
        with pytest.raises(DatasetError, match="row and column IDs differ"):
            load_dataset(*paths)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_header_only_file_rejected(self, tmp_path, which):
        _, paths = write_f1(tmp_path)
        paths[which].write_text(paths[which].read_text().splitlines()[0] + "\n")
        with pytest.raises(DatasetError, match="expected a header row and at least one data row"):
            load_dataset(*paths)

    def test_unknown_orientation_rejected(self, tmp_path):
        _, paths = write_f1(tmp_path)
        with pytest.raises(DatasetError, match="orientation"):
            load_dataset(*paths, orientation="columns-are-drugs")

    def test_asymmetry_warns_but_loads(self, tmp_path):
        _, paths = write_f1(tmp_path)
        paths[1].write_text(paths[1].read_text().replace("d1\t0.8", "d1\t0.7", 1))
        with pytest.warns(UserWarning, match="asymmetric"):
            load_dataset(*paths)


class TestDatasetStats:
    def test_f1_stats(self, f1):
        stats = dataset_stats(f1, 1)
        assert stats.interaction_count == 4
        assert stats.sparsity == Fraction(2, 3)
        assert stats.imbalance.li_drug == 0.75
        assert stats.imbalance.li_target == 0.5
        assert stats.imbalance.k == 1

    def test_sparsity_is_exact(self):
        # integer identity: sparsity * n * m == interaction count, no float error
        for seed in range(10):
            ds = random_dataset(9, 7, seed)
            stats = dataset_stats(ds, 2)
            assert stats.sparsity * ds.n * ds.m == stats.interaction_count

    def test_k_out_of_range(self, f1):
        with pytest.raises(ValueError, match="out of range"):
            dataset_stats(f1, 2)  # min(n, m) - 1 == 1

"""Dataset loading, validation, round-trip, and summary statistics."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest

from wknnir import (
    DatasetError,
    DtiDataset,
    fit_wknnir,
    load_dataset,
    save_dataset,
    subset,
    validate_dataset,
)
from wknnir.cli import main
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

    def test_negative_zeros_stored_as_positive(self):
        base = random_dataset(7, 6, seed=5)
        drug_sim, target_sim = base.drug_sim.copy(), base.target_sim.copy()
        drug_sim[0, 1:3] = drug_sim[1:3, 0] = 0.0
        target_sim[2, 4] = target_sim[4, 2] = 0.0

        def build(zero):
            return make_dataset(*(np.where(a == 0.0, zero, a) for a in (drug_sim, target_sim, base.interactions)))

        pos, neg = build(0.0), build(-0.0)
        for name in ("drug_sim", "target_sim", "interactions"):
            assert not np.signbit(getattr(neg, name)).any()
            assert getattr(neg, name).tobytes() == getattr(pos, name).tobytes()
        rng = np.random.default_rng(6)
        dp, tp = rng.random((4, 7)), rng.random((3, 6))
        for k, eta in [(1, 0.5), (3, 0.8), (9, 1.0)]:
            a, b = fit_wknnir(pos, k, eta), fit_wknnir(neg, k, eta)
            for name in ("y_drug", "y_target", "y_joint", "li_drug", "li_target"):
                assert np.float64(getattr(a, name)).tobytes() == np.float64(getattr(b, name)).tobytes()
            assert a.predict_s2(dp).tobytes() == b.predict_s2(dp).tobytes()
            assert a.predict_s3(tp).tobytes() == b.predict_s3(tp).tobytes()
            assert a.predict_s4(dp, tp).tobytes() == b.predict_s4(dp, tp).tobytes()

    def test_subset_preserves_order(self, f1):
        sub = subset(f1, [2, 0], [1])
        assert sub.drug_ids == ("d2", "d0")
        assert sub.target_ids == ("t1",)
        np.testing.assert_array_equal(sub.interactions, [[1], [0]])
        np.testing.assert_array_equal(sub.drug_sim, [[1.0, 0.2], [0.2, 1.0]])

    @pytest.mark.parametrize("order", ["ascending", "drawn", "empty"])
    def test_subset_equals_outer_index_gather(self, order):
        # Fold training indices and ensemble samples arrive ascending; the drawn
        # case checks that subset keeps a caller's order.
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

    @pytest.mark.parametrize(
        "drugs,targets,shared",
        [
            ("whole", "part", {"drug_sim"}),  # an S3 fold
            ("part", "whole", {"target_sim"}),  # an S2 fold
            ("whole", "whole", {"drug_sim", "target_sim", "interactions"}),
            ("reversed", "whole", {"target_sim"}),
            ("whole", "reversed", {"drug_sim"}),
            ("part", "part", set()),
        ],
    )
    def test_subset_shares_a_side_kept_whole(self, drugs, targets, shared):
        ds = random_dataset(12, 9, seed=2)
        index = {
            "whole": lambda size: np.arange(size),
            "part": lambda size: np.arange(1, size - 1),
            "reversed": lambda size: np.arange(size)[::-1],
        }
        drug_idx, target_idx = index[drugs](ds.n), index[targets](ds.m)
        sub = subset(ds, drug_idx, target_idx)
        gathers = {
            "drug_sim": (ds.drug_sim, drug_idx, drug_idx),
            "target_sim": (ds.target_sim, target_idx, target_idx),
            "interactions": (ds.interactions, drug_idx, target_idx),
        }
        for name, (parent, rows, cols) in gathers.items():
            arr = getattr(sub, name)
            np.testing.assert_array_equal(arr, parent[np.ix_(rows, cols)])
            assert not arr.flags.writeable and arr.flags.c_contiguous
            assert np.shares_memory(arr, parent) == (name in shared), name

    def test_fortran_input_is_stored_c_ordered_and_shared_whole(self):
        # A target-rows file is transposed on load, so its interactions arrive Fortran-ordered.
        src = random_dataset(6, 5, seed=3)
        names = ("drug_sim", "target_sim", "interactions")
        ds = DtiDataset(src.drug_ids, src.target_ids, *(np.asfortranarray(getattr(src, a)) for a in names))
        sub = subset(ds, np.arange(6), np.arange(5))
        for name in names:
            arr = getattr(ds, name)
            np.testing.assert_array_equal(arr, getattr(src, name))
            assert arr.flags.c_contiguous and not arr.flags.writeable
            assert getattr(sub, name) is arr

    @pytest.mark.parametrize(
        "drugs,targets,side",
        [
            ([True, False, True, True, False], [0], "drug"),  # a mask: cast to int, it would pick drugs 1, 0, 1, 1, 0
            ([0, 1], [True, True, True, True], "target"),
            ([0.0, 2.0], [0], "drug"),
            ([0], [1.9], "target"),
            ([-1], [0], "drug"),
            ([5], [0], "drug"),
            ([0], [0, 4], "target"),
            ([0], np.array([-1], dtype=np.int8), "target"),
        ],
    )
    def test_subset_rejects_indices_that_are_not_in_range_integers(self, drugs, targets, side):
        ds = random_dataset(5, 4, seed=1)
        size = ds.n if side == "drug" else ds.m
        with pytest.raises(ValueError, match=re.escape(f"{side} indices must be integers in [0, {size})")):
            subset(ds, drugs, targets)

    @pytest.mark.parametrize("drugs,targets,side", [([0, 0, 1, 2], [0], "drug"), ([1], [3, 0, 3], "target")])
    def test_subset_rejects_repeated_indices(self, drugs, targets, side):
        ds = random_dataset(5, 4, seed=1)
        with pytest.raises(ValueError, match=f"{side} indices must be distinct"):
            subset(ds, drugs, targets)

    @pytest.mark.parametrize("drugs,targets", [([], []), (np.array([], dtype=float), [3]), (np.array([4], dtype=np.uint8), [])])
    def test_subset_accepts_empty_and_any_integer_dtype(self, drugs, targets):
        ds = random_dataset(5, 4, seed=1)
        sub = subset(ds, drugs, targets)
        assert sub.drug_ids == tuple(ds.drug_ids[i] for i in drugs)
        assert sub.target_ids == tuple(ds.target_ids[j] for j in targets)
        np.testing.assert_array_equal(sub.interactions, ds.interactions[np.ix_(np.asarray(drugs, dtype=int), np.asarray(targets, dtype=int))])


def raises_only(message):
    """``DtiDataset(...)`` raises with exactly this one error message."""
    return pytest.raises(DatasetError, match=f"^{re.escape(message)}$")


class TestValidateDataset:
    """Building a dataset raises on every error ``validate_dataset`` finds and warns on asymmetry."""

    def test_valid_fixture_is_clean(self, f1):
        assert validate_dataset(f1) == []

    def test_bad_diagonal_is_error(self):
        sim = [[0.9, 0.8, 0.2], [0.8, 1.0, 0.4], [0.2, 0.4, 1.0]]
        with raises_only("drug similarity diagonal not 1 at index 0 (and 0 more)"):
            make_dataset(sim, F1_TARGET_SIM, F1_INTERACTIONS)

    def test_asymmetry_is_warning(self):
        sim = [[1.0, 0.8, 0.2], [0.7, 1.0, 0.4], [0.2, 0.4, 1.0]]
        with pytest.warns(UserWarning, match="asymmetric") as caught:
            ds = make_dataset(sim, F1_TARGET_SIM, F1_INTERACTIONS)
        assert len(caught) == 1
        findings = validate_dataset(ds)
        assert [f.severity for f in findings] == ["warning"]
        assert findings[0].message == str(caught[0].message)

    def test_out_of_range_similarity(self):
        sim = [[1.0, 1.2, 0.2], [1.2, 1.0, 0.4], [0.2, 0.4, 1.0]]
        with raises_only("drug similarity values outside [0, 1]"):
            make_dataset(sim, F1_TARGET_SIM, F1_INTERACTIONS)

    def test_non_binary_interactions(self):
        with raises_only("non-binary interaction values"):
            make_dataset(F1_DRUG_SIM, F1_TARGET_SIM, [[1, 0.5], [0, 1], [1, 1]])

    def test_duplicate_ids(self):
        with raises_only("duplicate drug IDs"):
            DtiDataset(("a", "a", "b"), ("t0", "t1"), F1_DRUG_SIM, F1_TARGET_SIM, F1_INTERACTIONS)

    def test_shape_mismatch(self):
        with raises_only("interaction matrix shape (3, 2) does not match (n, m) = (2, 2)"):
            DtiDataset(("a", "b"), ("t0", "t1"), [[1, 0.5], [0.5, 1]], F1_TARGET_SIM, [[1, 0], [0, 1], [1, 1]])

    def test_duplicate_target_ids(self):
        with raises_only("duplicate target IDs"):
            DtiDataset(("d0", "d1", "d2"), ("t", "t"), F1_DRUG_SIM, F1_TARGET_SIM, F1_INTERACTIONS)

    @pytest.mark.parametrize("side", ["drug", "target"])
    def test_non_square_similarity(self, side):
        sims = {"drug": F1_DRUG_SIM, "target": F1_TARGET_SIM, side: np.ones((2, 3))}
        with raises_only(f"{side} similarity matrix is not square: shape (2, 3)"):
            DtiDataset(("d0", "d1", "d2"), ("t0", "t1"), sims["drug"], sims["target"], F1_INTERACTIONS)

    @pytest.mark.parametrize("side", ["drug", "target"])
    def test_wrong_size_similarity(self, side):
        sims = {"drug": F1_DRUG_SIM, "target": F1_TARGET_SIM, side: np.eye(4)}
        count = 3 if side == "drug" else 2
        with raises_only(f"{side} similarity side 4 does not match {side} count {count}"):
            DtiDataset(("d0", "d1", "d2"), ("t0", "t1"), sims["drug"], sims["target"], F1_INTERACTIONS)

    @pytest.mark.parametrize("n,m", [(0, 2), (3, 0)])
    def test_empty_side(self, n, m):
        with raises_only(f"dataset must have at least one drug and one target (n={n}, m={m})"):
            DtiDataset(
                tuple(f"d{i}" for i in range(n)), tuple(f"t{j}" for j in range(m)), np.eye(n), np.eye(m), np.zeros((n, m))
            )

    # Datasets on which the one-entity rule for recovery once moved scores;
    # none of them can be built now.
    @pytest.mark.parametrize("n,m", [(1, 3), (3, 1), (1, 1)])
    def test_non_binary_labels_on_a_one_entity_side(self, n, m):
        ds = random_dataset(n, m, seed=n * 10 + m)
        with raises_only("non-binary interaction values"):
            make_dataset(ds.drug_sim, ds.target_sim, ds.interactions * 0.5)

    @pytest.mark.parametrize("side", ["drug", "target"])
    def test_one_nan_similarity(self, side):
        ds = random_dataset(4, 5, seed=3)
        sims = {"drug": ds.drug_sim.copy(), "target": ds.target_sim.copy()}
        sims[side][1, 2] = np.nan
        with raises_only(f"{side} similarity values outside [0, 1]"):
            make_dataset(sims["drug"], sims["target"], ds.interactions)

    @pytest.mark.parametrize("side", ["drug", "target"])
    def test_similarities_in_minus_one_to_one(self, side):
        ds = random_dataset(4, 5, seed=4)
        sims = {"drug": ds.drug_sim, "target": ds.target_sim}
        sims[side] = 2.0 * sims[side] - 1.0  # symmetric, diagonal still 1
        with raises_only(f"{side} similarity values outside [0, 1]"):
            make_dataset(sims["drug"], sims["target"], ds.interactions)


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
    """What ``wknnir stats`` reports: counts, exact sparsity and the LI at one k."""

    @staticmethod
    def argv(paths, k):
        y, sd, st = map(str, paths)
        return ["stats", "--interactions", y, "--drug-sim", sd, "--target-sim", st, "--k", str(k)]

    def test_f1_stats(self, tmp_path, capsys):
        _, paths = write_f1(tmp_path)
        assert main(self.argv(paths, 1)) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["interaction_count"] == 4
        assert stats["sparsity_fraction"] == "2/3"
        assert stats["li_drug"] == 0.75
        assert stats["li_target"] == 0.5
        assert stats["k"] == 1

    def test_sparsity_is_exact(self, tmp_path, capsys):
        # integer identity: sparsity * n * m == interaction count, no float error
        paths = (tmp_path / "y.tsv", tmp_path / "sd.tsv", tmp_path / "st.tsv")
        for seed in range(10):
            ds = random_dataset(9, 7, seed)
            save_dataset(ds, *paths)
            assert main(self.argv(paths, 2)) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["interaction_count"] == int(ds.interactions.sum())
            assert Fraction(stats["sparsity_fraction"]) * ds.n * ds.m == stats["interaction_count"]

    def test_k_out_of_range(self, tmp_path, capsys):
        _, paths = write_f1(tmp_path)
        assert main(self.argv(paths, 2)) == 1  # min(n, m) - 1 == 1
        assert "out of range" in capsys.readouterr().err


class TestParseLineNumbers:
    """Errors name the file's own line, counting the blank lines too."""

    @staticmethod
    def load_with_interaction_text(tmp_path, text):
        _, paths = write_f1(tmp_path)
        paths[0].write_text(text, encoding="utf-8")
        return load_dataset(*paths)

    def test_non_numeric_after_blank_lines(self, tmp_path):
        text = "\tt0\tt1\n\nd0\t1\t0\n\nd1\t0\tx\nd2\t1\t1\n"
        with pytest.raises(DatasetError, match=r"y\.tsv:5: non-numeric value 'x'$"):
            self.load_with_interaction_text(tmp_path, text)

    def test_missing_value_after_blank_lines(self, tmp_path):
        text = "\n\tt0\tt1\n \nd0\t1\t \nd1\t0\t1\nd2\t1\t1\n"
        with pytest.raises(DatasetError, match=r"y\.tsv:4: missing value in column 2$"):
            self.load_with_interaction_text(tmp_path, text)

    def test_dimension_mismatch_after_blank_lines(self, tmp_path):
        text = "\tt0\tt1\n\n\nd0\t1\t0\t1\nd1\t0\t1\nd2\t1\t1\n"
        with pytest.raises(DatasetError, match=r"y\.tsv:4: dimension mismatch: 3 cells, header has 2 columns$"):
            self.load_with_interaction_text(tmp_path, text)


def per_scalar_text(matrix, row_ids, col_ids):
    """``write_matrix``'s text as first written: the rule on each numpy scalar."""

    def fmt(x):
        if x == int(x):
            return str(int(x))
        return repr(float(x))

    lines = ["\t".join(["", *col_ids])]
    for rid, row in zip(row_ids, np.asarray(matrix)):
        lines.append("\t".join([rid, *(fmt(v) for v in row)]))
    return "\n".join(lines) + "\n"


class TestWriteMatrix:
    def test_same_bytes_as_per_scalar_formatting(self, tmp_path):
        from wknnir.data import write_matrix

        rng = np.random.default_rng(3)
        special = [0.0, -0.0, 1.0, -1.0, 0.5, 1e16, 1e22, -3e300, 5e-324, 2.0**53 + 2, 0.1 + 0.2]
        matrices = [rng.integers(-5, 5, size=(4, 6)), rng.random((4, 6)) < 0.5]
        for _ in range(40):
            matrix = rng.choice(special, size=(4, 6))
            spread = rng.random((4, 6)) < 0.4
            matrix[spread] = rng.random(int(spread.sum())) * 10 - 5
            matrices.append(matrix)
        # Every value repeats across rows and columns, so most cells share a text.
        for size in range(1, 6):
            matrices.append(rng.choice(rng.choice(special, size=size, replace=False), size=(4, 6)))
        # -0.0 and 0.0 are one distinct value; whichever comes first, both are written "0".
        zeros = np.zeros((4, 6))
        zeros[0, 0] = zeros[2, 3] = -0.0
        matrices += [zeros, -zeros]
        # Values whose int() and repr() differ from the naive text, repeated behind each other.
        matrices.append(np.array([[2.0**53 + 2, 1e22, 5e-324] * 2] * 2 + [[5e-324, 1e22, 2.0**53 + 2] * 2] * 2))
        # Other dtypes: integers past 2**53 stay exact; narrow floats are written as their double value.
        matrices.append(rng.integers(-(2**62), 2**62, size=(4, 6)))
        matrices += [rng.random((4, 6)).astype(np.float32), rng.random((4, 6)).astype(np.float16)]
        ids = ([f"r{i}" for i in range(4)], [f"c{j}" for j in range(6)])
        # Successive calls on different matrices: no text carries over from one call to the next.
        for matrix in matrices:
            write_matrix(tmp_path / "m.tsv", matrix, *ids)
            assert (tmp_path / "m.tsv").read_text(encoding="utf-8") == per_scalar_text(matrix, *ids)

    @pytest.mark.parametrize("value,error", [(np.nan, ValueError), (np.inf, OverflowError), (-np.inf, OverflowError)])
    def test_non_finite_raises_as_before(self, tmp_path, value, error):
        from wknnir.data import write_matrix

        # The non-finite cell comes after finite cells in its own row and in
        # earlier rows; a later one of the other kind must not decide the error,
        # and the message is the one the per-cell rule gives.
        ids = (["a", "b", "c"], ["d", "e", "f"])
        for where in [(1, 0), (0, 2), (2, 1)]:
            matrix = np.array([[1.0, 0.5, 1.0], [0.5, 1.0, 0.5], [1.0, 1.0, 0.5]])
            matrix[where] = value
            matrix[2, 2] = np.inf if np.isnan(value) else np.nan
            with pytest.raises(error) as before:
                per_scalar_text(matrix, *ids)
            with pytest.raises(error, match=f"^{re.escape(str(before.value))}$"):
                write_matrix(tmp_path / "m.tsv", matrix, *ids)

    @pytest.mark.parametrize(
        "shape,row_ids,col_ids",
        [
            ((3, 2), ["a", "b"], ["c", "d", "e"]),  # IDs swapped in count: a row would be dropped
            ((2, 2), ["a", "b", "x"], ["c", "d"]),
            ((2, 2), ["a", "b"], ["c"]),
            ((4,), ["a", "b"], ["c", "d"]),
            ((2, 2, 1), ["a", "b"], ["c", "d"]),
        ],
        ids=["row-dropped", "extra-row-id", "missing-column-id", "1-d", "3-d"],
    )
    def test_shape_mismatch_rejected(self, tmp_path, shape, row_ids, col_ids):
        from wknnir.data import write_matrix

        path = tmp_path / "m.tsv"
        with pytest.raises(ValueError, match=rf"{len(row_ids)} row IDs and {len(col_ids)} column IDs"):
            write_matrix(path, np.ones(shape), row_ids, col_ids)
        assert not path.exists()

    @pytest.mark.parametrize(
        "bad", ["a\tb", "a\nb", "a\r", "\r\nb", "a\x0bb", "a\x0cb", "a\x1cb", "a\x85b", "a\u2028b", " a", "a ", "\u00a0a"]
    )
    @pytest.mark.parametrize("side", ["row", "column"])
    def test_id_with_tab_or_line_break_rejected(self, tmp_path, bad, side):
        from wknnir.data import write_matrix

        row_ids, col_ids = (["a", bad], ["c", "d"]) if side == "row" else (["a", "b"], ["c", bad])
        path = tmp_path / "m.tsv"
        # The reader strips each ID, so padding would read back as another ID.
        with pytest.raises(ValueError, match="holds a tab or a line break, or starts or ends with whitespace"):
            write_matrix(path, np.ones((2, 2)), row_ids, col_ids)
        assert not path.exists()

    def test_ids_with_spaces_and_non_ascii_round_trip(self, tmp_path):
        from wknnir.data import _parse_grid, write_matrix

        path = tmp_path / "m.tsv"
        write_matrix(path, np.eye(2), ["a b", "\u00e9"], ["", "c"])
        assert _parse_grid(path)[:2] == (["a b", "\u00e9"], ["", "c"])

"""End-to-end CLI tests: every subcommand against small on-disk datasets."""

import json
from fractions import Fraction

import numpy as np
import pytest

from wknnir import (
    DEFAULT_GRID,
    CvPlan,
    fit_wknn,
    fit_wknnir,
    fixed_learner,
    imbalance_report,
    load_dataset,
    rank_novel,
    run_cv,
    save_dataset,
    tune_hyperparameters,
    ParamGrid,
    write_matrix,
)
from wknnir import evaluation
from wknnir.cli import DATA_DIR_ENV, build_parser, main
from conftest import load_datagen, make_dataset, random_dataset


@pytest.fixture
def data_files(tmp_path):
    ds = random_dataset(8, 6, seed=0)
    paths = {
        "interactions": tmp_path / "interactions.tsv",
        "drug_sim": tmp_path / "drug_sim.tsv",
        "target_sim": tmp_path / "target_sim.tsv",
    }
    save_dataset(ds, paths["interactions"], paths["drug_sim"], paths["target_sim"])
    return ds, paths


def dataset_args(paths):
    return [
        "--interactions", str(paths["interactions"]),
        "--drug-sim", str(paths["drug_sim"]),
        "--target-sim", str(paths["target_sim"]),
    ]


def read_matrix(path):
    lines = path.read_text().splitlines()
    return np.array([[float(c) for c in ln.split("\t")[1:]] for ln in lines[1:]])


class TestValidate:
    def test_clean_dataset(self, data_files, capsys):
        ds, paths = data_files
        assert main(["validate", *dataset_args(paths)]) == 0
        out = capsys.readouterr().out
        assert out == f"ok: 8 drugs, 6 targets, {int(ds.interactions.sum())} interactions\n"

    def test_non_binary_interactions_fail(self, data_files, capsys):
        ds, paths = data_files
        bad = np.array(ds.interactions)
        bad[0, 0] = 0.5
        write_matrix(paths["interactions"], bad, ds.drug_ids, ds.target_ids)
        assert main(["validate", *dataset_args(paths)]) == 1
        assert capsys.readouterr().out.startswith("error:")

    def test_asymmetric_similarity_warns_but_passes(self, data_files, capsys):
        ds, paths = data_files
        skewed = np.array(ds.drug_sim)
        skewed[0, 1] += 0.05
        write_matrix(paths["drug_sim"], skewed, ds.drug_ids, ds.drug_ids)
        assert main(["validate", *dataset_args(paths)]) == 0
        out = capsys.readouterr().out
        assert "warning:" in out and "ok:" in out


class TestStats:
    def test_json_payload(self, data_files, capsys):
        ds, paths = data_files
        assert main(["stats", *dataset_args(paths), "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = imbalance_report(ds, 2)
        count = int(ds.interactions.sum())
        frac = Fraction(count, 48)
        assert payload["n"] == 8 and payload["m"] == 6
        assert payload["interaction_count"] == count
        assert payload["sparsity"] == float(frac)
        assert payload["sparsity_fraction"] == f"{frac.numerator}/{frac.denominator}"
        assert payload["k"] == 2
        assert payload["li_drug"] == report.li_drug
        assert payload["li_target"] == report.li_target
        assert len(payload["drug_importance"]) == 8
        assert len(payload["target_importance"]) == 6

    def test_no_interactions_is_an_error(self, data_files, capsys):
        ds, paths = data_files
        write_matrix(paths["interactions"], np.zeros((8, 6)), ds.drug_ids, ds.target_ids)
        assert main(["stats", *dataset_args(paths), "--k", "2"]) == 1
        assert "no interactions" in capsys.readouterr().err

    def test_out_file_matches_stdout(self, data_files, tmp_path, capsys):
        _, paths = data_files
        main(["stats", *dataset_args(paths), "--k", "2"])
        expected = capsys.readouterr().out
        out = tmp_path / "stats.json"
        main(["stats", *dataset_args(paths), "--k", "2", "--out", str(out)])
        assert out.read_text() == expected


class TestRecover:
    def test_writes_all_three_matrices(self, data_files, tmp_path, capsys):
        ds, paths = data_files
        out_dir = tmp_path / "rec"
        assert main(["recover", *dataset_args(paths), "--k", "2", "--eta", "0.8", "--out-dir", str(out_dir)]) == 0
        rec = fit_wknnir(ds, 2, 0.8)
        np.testing.assert_array_equal(read_matrix(out_dir / "y_drug.tsv"), rec.y_drug)
        np.testing.assert_array_equal(read_matrix(out_dir / "y_target.tsv"), rec.y_target)
        np.testing.assert_array_equal(read_matrix(out_dir / "y_joint.tsv"), rec.y_joint)
        assert capsys.readouterr().out == f"li_drug={rec.li_drug!r} li_target={rec.li_target!r}\n"


class TestCv:
    def test_matches_library_run(self, data_files, tmp_path, capsys):
        ds, paths = data_files
        out = tmp_path / "cv.csv"
        code = main([
            "cv", *dataset_args(paths),
            "--setting", "S2", "--method", "wknn", "--k", "2", "--eta", "0.8",
            "--folds", "4", "--reps", "2", "--out", str(out),
        ])
        assert code == 0
        result = run_cv(ds, fixed_learner(fit_wknn, 2, 0.8), CvPlan("S2", 4, 2, 0))
        lines = out.read_text().splitlines()
        assert lines[0] == "setting,method,fold,repetition,aupr"
        assert len(lines) == 1 + 8
        for line, fr in zip(lines[1:], result.folds):
            assert line == f"S2,wknn,{fr.index},{fr.repetition},{fr.aupr!r}"
        assert capsys.readouterr().out == f"mean_aupr={result.mean_aupr!r}\n"

    def test_repeat_runs_are_byte_identical(self, data_files, tmp_path, capsys):
        _, paths = data_files
        for flags in (
            [
                "--setting", "S4", "--method", "wknnir", "--k", "2", "--eta", "0.8",
                "--folds", "2", "--reps", "1", "--seed", "7",
            ],
            [
                "--setting", "S2", "--method", "wknnir", "--k", "2", "--eta", "0.6",
                "--ensemble", "els", "--q", "3", "--ratio", "0.9", "--li-k", "2",
                "--folds", "3", "--reps", "2", "--seed", "5",
            ],
        ):
            argv = ["cv", *dataset_args(paths), *flags]
            out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
            assert main(argv + ["--out", str(out_a)]) == 0
            first = capsys.readouterr().out
            assert main(argv + ["--out", str(out_b)]) == 0
            assert out_a.read_bytes() == out_b.read_bytes()
            assert capsys.readouterr().out == first

    def test_ensemble_method_label(self, data_files, tmp_path):
        _, paths = data_files
        out = tmp_path / "cv.csv"
        code = main([
            "cv", *dataset_args(paths),
            "--setting", "S2", "--method", "wknnir", "--k", "1", "--eta", "0.8",
            "--ensemble", "els", "--q", "2", "--ratio", "0.9", "--li-k", "1",
            "--folds", "3", "--reps", "1", "--out", str(out),
        ])
        assert code == 0
        assert all(line.split(",")[1] == "els-wknnir" for line in out.read_text().splitlines()[1:])

    def test_default_li_k_on_small_training_folds(self, data_files, tmp_path):
        # S4 training blocks here are 4 x 3, smaller than the default --li-k 5.
        _, paths = data_files
        out = tmp_path / "cv.csv"
        code = main([
            "cv", *dataset_args(paths),
            "--setting", "S4", "--method", "wknnir", "--k", "5", "--eta", "0.8",
            "--ensemble", "els", "--q", "2", "--folds", "2", "--reps", "1", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_tunes_when_parameters_omitted(self, data_files, tmp_path):
        _, paths = data_files
        out = tmp_path / "cv.csv"
        code = main([
            "cv", *dataset_args(paths),
            "--setting", "S2", "--method", "wknn",
            "--grid-k", "1,2", "--grid-eta", "0.5,1.0", "--inner-folds", "2",
            "--folds", "3", "--reps", "1", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_half_specified_parameters_fail(self, data_files, capsys):
        _, paths = data_files
        code = main(["cv", *dataset_args(paths), "--setting", "S2", "--k", "2", "--folds", "3"])
        assert code == 1
        assert "must be given together" in capsys.readouterr().err

    def test_zero_threads_fail(self, data_files, capsys):
        _, paths = data_files
        code = main([
            "cv", *dataset_args(paths),
            "--setting", "S2", "--k", "2", "--eta", "0.8", "--folds", "3", "--threads", "0",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: need an integer threads >= 1, got threads=0\n"

    @pytest.mark.parametrize("flags,message", [
        (["--q", "0"], "need an integer q >= 1, got q=0"),
        (["--ratio", "1.5"], "R must be in (0, 1], got 1.5"),
    ])
    def test_bad_ensemble_fails_before_tuning(self, data_files, capsys, monkeypatch, flags, message):
        _, paths = data_files
        inner_runs = []
        monkeypatch.setattr(evaluation, "run_cv", lambda *a, **kw: inner_runs.append(a) or run_cv(*a, **kw))
        code = main([
            "cv", *dataset_args(paths), "--setting", "S2", "--method", "wknnir", "--ensemble", "els",
            *flags, "--grid-k", "1,3", "--grid-eta", "0.5,1.0", "--inner-folds", "2", "--folds", "3",
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert inner_runs == []

    def test_unknown_setting_is_a_usage_error(self, data_files):
        _, paths = data_files
        with pytest.raises(SystemExit) as exc:
            main(["cv", *dataset_args(paths), "--setting", "S1", "--k", "1", "--eta", "0.5"])
        assert exc.value.code == 2


class TestTune:
    def test_single_cell_grid(self, data_files, capsys):
        _, paths = data_files
        code = main([
            "tune", *dataset_args(paths),
            "--setting", "S2", "--method", "wknn",
            "--grid-k", "2", "--grid-eta", "0.7", "--inner-folds", "2",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"setting": "S2", "method": "wknn", "k": 2, "eta": 0.7}

    def test_matches_library_tuning(self, data_files, capsys):
        ds, paths = data_files
        code = main([
            "tune", *dataset_args(paths),
            "--setting", "S3", "--method", "wknn",
            "--grid-k", "1,2", "--grid-eta", "0.5,1.0", "--inner-folds", "2", "--seed", "3",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        best = tune_hyperparameters(
            ds, ParamGrid((1, 2), (0.5, 1.0)), CvPlan("S3", 2, repetitions=1, seed=3), 2
        )
        assert payload["k"] == best["k"] and payload["eta"] == best["eta"]


class TestRankNovel:
    def test_matches_library_ranking(self, data_files, tmp_path):
        ds, paths = data_files
        out = tmp_path / "novel.csv"
        code = main([
            "rank-novel", *dataset_args(paths),
            "--setting", "S2", "--method", "wknn", "--k", "2", "--eta", "0.8",
            "--top-n", "5", "--folds", "4", "--out", str(out),
        ])
        assert code == 0
        expected = rank_novel(ds, fixed_learner(fit_wknn, 2, 0.8), "S2", 5, folds=4)
        lines = out.read_text().splitlines()
        assert lines[0] == "drug_id,target_id,score"
        assert lines[1:] == [f"{d},{t},{s!r}" for d, t, s in expected]


class TestSharedFlags:
    RUN_COMMANDS = ("tune", "cv", "rank-novel")
    DATASET = ["--interactions", "y.tsv", "--drug-sim", "sd.tsv", "--target-sim", "st.tsv"]

    def parsed(self, *flags):
        return {cmd: vars(build_parser().parse_args([cmd, *self.DATASET, *flags])) for cmd in self.RUN_COMMANDS}

    def test_same_defaults(self):
        want = {
            "setting": "S4",
            "method": "wknnir",
            "grid_k": DEFAULT_GRID.k_values,
            "grid_eta": DEFAULT_GRID.eta_values,
            "inner_folds": None,
            "seed": 0,
            "out": None,
        }
        parsed = self.parsed("--setting", "S4")
        for ns in parsed.values():
            assert {key: ns[key] for key in want} == want
        assert parsed["cv"]["folds"] is None and parsed["rank-novel"]["folds"] is None

    def test_same_parsed_values(self):
        flags = ["--setting", "S2", "--method", "wknn", "--grid-k", "1,3", "--grid-eta", "0.5,1"]
        flags += ["--inner-folds", "3", "--seed", "7", "--out", "o.csv"]
        want = {
            "setting": "S2",
            "method": "wknn",
            "grid_k": (1, 3),
            "grid_eta": (0.5, 1.0),
            "inner_folds": 3,
            "seed": 7,
            "out": "o.csv",
        }
        for ns in self.parsed(*flags).values():
            assert {key: ns[key] for key in want} == want


class TestPathResolution:
    def test_data_dir_env_resolves_relative_paths(self, data_files, tmp_path, monkeypatch, capsys):
        _, paths = data_files
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        code = main([
            "validate",
            "--interactions", "interactions.tsv",
            "--drug-sim", "drug_sim.tsv",
            "--target-sim", "target_sim.tsv",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_data_dir_flag_beats_env(self, data_files, tmp_path, monkeypatch):
        _, paths = data_files
        monkeypatch.setenv(DATA_DIR_ENV, "/nonexistent")
        code = main([
            "validate", "--data-dir", str(tmp_path),
            "--interactions", "interactions.tsv",
            "--drug-sim", "drug_sim.tsv",
            "--target-sim", "target_sim.tsv",
        ])
        assert code == 0

    def test_absolute_paths_ignore_data_dir(self, data_files, monkeypatch):
        _, paths = data_files
        monkeypatch.setenv(DATA_DIR_ENV, "/nonexistent")
        assert main(["validate", *dataset_args(paths)]) == 0

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main([
            "validate",
            "--interactions", str(tmp_path / "gone.tsv"),
            "--drug-sim", str(tmp_path / "gone.tsv"),
            "--target-sim", str(tmp_path / "gone.tsv"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestOrientation:
    def test_target_rows_matches_transposed_load(self, data_files, tmp_path, capsys):
        ds, paths = data_files
        flipped = tmp_path / "interactions_by_target.tsv"
        write_matrix(flipped, ds.interactions.T, ds.target_ids, ds.drug_ids)
        args = [
            "--interactions", str(flipped),
            "--drug-sim", str(paths["drug_sim"]),
            "--target-sim", str(paths["target_sim"]),
            "--orientation", "target-rows",
        ]
        assert main(["validate", *args]) == 0
        flipped_out = capsys.readouterr().out
        assert main(["validate", *dataset_args(paths)]) == 0
        assert flipped_out == capsys.readouterr().out

    def test_stats_and_recover_bytes_do_not_depend_on_orientation(self, tmp_path, capsys):
        # At GPCR shape, seed 0, LI sums once rounded differently when Y was loaded transposed.
        datagen = load_datagen()
        ds = make_dataset(*datagen.generate(*datagen.SHAPES["gpcr"], seed=0))
        save_dataset(ds, tmp_path / "by_drug.tsv", tmp_path / "drug_sim.tsv", tmp_path / "target_sim.tsv")
        write_matrix(tmp_path / "by_target.tsv", ds.interactions.T, ds.target_ids, ds.drug_ids)
        runs = []
        for name, orientation in (("by_drug.tsv", "drug-rows"), ("by_target.tsv", "target-rows")):
            report = imbalance_report(
                load_dataset(tmp_path / name, tmp_path / "drug_sim.tsv", tmp_path / "target_sim.tsv", orientation), 5
            )
            args = [
                "--data-dir", str(tmp_path), "--interactions", name, "--drug-sim", "drug_sim.tsv",
                "--target-sim", "target_sim.tsv", "--orientation", orientation, "--k", "5",
            ]
            assert main(["stats", *args]) == 0
            stats = capsys.readouterr().out
            out_dir = tmp_path / orientation
            assert main(["recover", *args, "--eta", "0.5", "--out-dir", str(out_dir)]) == 0
            runs.append({
                **{field: np.asarray(value).tobytes() for field, value in vars(report).items()},
                "stats": stats,
                "recover": capsys.readouterr().out,
                **{f: (out_dir / f).read_bytes() for f in ("y_drug.tsv", "y_target.tsv", "y_joint.tsv")},
            })
        assert runs[0] == runs[1]

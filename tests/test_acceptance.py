"""Acceptance suite: reference-value reproduction plus exhaustive property checks.

The reproduction tests need the four gold-standard DTI benchmark datasets
(NR, IC, GPCR, E). Point the WKNNIR_DATA_DIR environment variable (or a
``data/`` directory next to this repository's root) at them; two layouts
are recognized per dataset name:

  {name}/interactions.tsv, {name}/drug_sim.tsv, {name}/target_sim.tsv
      (drug-rows TSV, the format this package writes)
  {name}_admat_dgc.txt, {name}_simmat_dc.txt, {name}_simmat_dg.txt
      (classic flat layout; interaction matrix rows are targets)

A test whose dataset is missing skips with an explanatory message. The
property checks at the bottom are self-contained and always run.
"""

import json
import math
import os
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from wknnir import (
    DEFAULT_GRID,
    INNER_FOLDS,
    OUTER_FOLDS,
    CvPlan,
    SamplingStrategy,
    WkNNIRModel,
    base_factory,
    ensemble_factory,
    fit_wknn,
    fit_wknnir,
    aupr,
    imbalance_report,
    run_cv,
    sampling_probabilities,
    save_dataset,
    train_ensemble,
    tuned_learner,
    load_dataset,
)
from wknnir.cli import main
from conftest import random_dataset
from test_evaluation import oracle_aupr
from test_neighbors import assert_matches_oracle

DATASETS = ("nr", "ic", "gpcr", "e")
DATA_ENV = "WKNNIR_DATA_DIR"
THREADS = int(os.environ.get("WKNNIR_TEST_THREADS", min(4, os.cpu_count() or 1)))

# Published reference values for the four benchmarks.
SHAPES = {"nr": (54, 26, 90), "ic": (210, 204, 1476), "gpcr": (223, 95, 635), "e": (445, 664, 2926)}
LI_REFERENCE = {"nr": (0.658, 0.764), "ic": (0.729, 0.323), "gpcr": (0.707, 0.644), "e": (0.737, 0.35)}
SPARSITY_REFERENCE = {"nr": "0.064", "ic": "0.035", "gpcr": "0.03", "e": "0.01"}
CV_REFERENCE = {
    # (setting, dataset): {method: mean AUPR over 2 repetitions of outer CV}
    ("S2", "nr"): {"wknn": 0.51, "wknnir": 0.53},
    ("S2", "ic"): {"wknn": 0.354, "wknnir": 0.358},
    ("S2", "gpcr"): {"wknn": 0.369, "wknnir": 0.386},
    ("S2", "e"): {"wknn": 0.385, "wknnir": 0.392},
    ("S3", "nr"): {"wknn": 0.443, "wknnir": 0.455},
    ("S3", "ic"): {"wknn": 0.789, "wknnir": 0.801},
    ("S3", "gpcr"): {"wknn": 0.541, "wknnir": 0.575},
    ("S3", "e"): {"wknn": 0.776, "wknnir": 0.782},
    ("S4", "nr"): {"wknn": 0.159, "wknnir": 0.178},
    ("S4", "ic"): {"wknn": 0.216, "wknnir": 0.221},
    ("S4", "gpcr"): {"wknn": 0.149, "wknnir": 0.156},
    ("S4", "e"): {"wknn": 0.208, "wknnir": 0.205},
}
ENSEMBLE_REFERENCE = {
    # (setting, dataset): {strategy kind: mean AUPR for the q=30 ensemble of wknnir}
    ("S2", "nr"): {"uniform": 0.542, "global": 0.54, "local": 0.538},
    ("S2", "ic"): {"uniform": 0.358, "global": 0.359, "local": 0.36},
    ("S2", "gpcr"): {"uniform": 0.386, "global": 0.38, "local": 0.382},
    ("S2", "e"): {"uniform": 0.393, "global": 0.394, "local": 0.395},
    ("S3", "nr"): {"uniform": 0.461, "global": 0.47, "local": 0.469},
    ("S3", "ic"): {"uniform": 0.803, "global": 0.805, "local": 0.804},
    ("S3", "gpcr"): {"uniform": 0.577, "global": 0.577, "local": 0.577},
    ("S3", "e"): {"uniform": 0.785, "global": 0.783, "local": 0.783},
    ("S4", "nr"): {"uniform": 0.167, "global": 0.18, "local": 0.183},
    ("S4", "ic"): {"uniform": 0.225, "global": 0.22, "local": 0.222},
    ("S4", "gpcr"): {"uniform": 0.153, "global": 0.157, "local": 0.157},
    ("S4", "e"): {"uniform": 0.208, "global": 0.206, "local": 0.208},
}
LI_TOLERANCE = 0.01
AUPR_TOLERANCE = 0.03


def _data_root() -> Path:
    env = os.environ.get(DATA_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data"


@lru_cache(maxsize=None)
def benchmark(name):
    root = _data_root()
    nested = root / name
    if (nested / "interactions.tsv").is_file():
        return load_dataset(
            nested / "interactions.tsv", nested / "drug_sim.tsv", nested / "target_sim.tsv"
        )
    flat = root / f"{name}_admat_dgc.txt"
    if flat.is_file():
        return load_dataset(
            flat,
            root / f"{name}_simmat_dc.txt",
            root / f"{name}_simmat_dg.txt",
            orientation="target-rows",
        )
    pytest.skip(f"benchmark dataset {name!r} not found under {root}; set ${DATA_ENV} to its location")


def _inner_folds(name, setting):
    # The smallest dataset is tuned on coarser folds so each inner
    # training split keeps a usable interaction distribution.
    if name == "nr":
        return 10 if setting in ("S2", "S3") else 3
    return INNER_FOLDS[setting]


def _outer_plan(setting):
    return CvPlan(setting, OUTER_FOLDS[setting], repetitions=2, seed=0)


@lru_cache(maxsize=None)
def tuned_cv_mean(name, setting, method):
    ds = benchmark(name)
    learner = tuned_learner(base_factory(method), DEFAULT_GRID, setting, _inner_folds(name, setting))
    return run_cv(ds, learner, _outer_plan(setting), threads=THREADS).mean_aupr


@lru_cache(maxsize=None)
def ensemble_cv_mean(name, setting, kind):
    ds = benchmark(name)
    final = ensemble_factory("wknnir", q=30, ratio=0.95, strategy=SamplingStrategy(kind, sigma=0.1, k=5))
    learner = tuned_learner(
        base_factory("wknnir"), DEFAULT_GRID, setting, _inner_folds(name, setting), final_factory=final
    )
    return run_cv(ds, learner, _outer_plan(setting), threads=THREADS).mean_aupr


class TestReferenceLocalImbalance:
    @pytest.mark.parametrize("name", DATASETS)
    def test_li_at_k5_matches_reference(self, name):
        ds = benchmark(name)
        assert (ds.n, ds.m, int(ds.interactions.sum())) == SHAPES[name]
        report = imbalance_report(ds, 5)
        li_drug, li_target = LI_REFERENCE[name]
        assert report.li_drug == pytest.approx(li_drug, abs=LI_TOLERANCE)
        assert report.li_target == pytest.approx(li_target, abs=LI_TOLERANCE)


class TestReferenceSparsity:
    @pytest.mark.parametrize("name", DATASETS)
    def test_sparsity_rounds_to_reference(self, name, tmp_path):
        # The exact sparsity is what `wknnir stats` reports as sparsity_fraction.
        files = [tmp_path / f"{part}.tsv" for part in ("interactions", "drug_sim", "target_sim")]
        save_dataset(benchmark(name), *files)
        out = tmp_path / "stats.json"
        argv = ["stats", "--interactions", str(files[0]), "--drug-sim", str(files[1]), "--target-sim", str(files[2])]
        assert main([*argv, "--k", "1", "--out", str(out)]) == 0
        sparsity = Fraction(json.loads(out.read_text())["sparsity_fraction"])
        n, m, count = SHAPES[name]
        # Exact rational arithmetic first, display rounding second.
        assert sparsity * (n * m) == count
        reference = SPARSITY_REFERENCE[name]
        decimals = len(reference.split(".")[1])
        assert round(float(sparsity), decimals) == float(reference)


class TestReferenceCvAupr:
    @pytest.mark.parametrize(
        "setting,name,method",
        [(s, d, meth) for (s, d), cells in sorted(CV_REFERENCE.items()) for meth in sorted(cells)],
        ids=lambda v: str(v),
    )
    def test_tuned_cv_matches_reference(self, setting, name, method):
        expected = CV_REFERENCE[(setting, name)][method]
        assert tuned_cv_mean(name, setting, method) == pytest.approx(expected, abs=AUPR_TOLERANCE)


class TestReferenceEnsembleAupr:
    @pytest.mark.parametrize(
        "setting,name,kind",
        [(s, d, k) for (s, d), cells in sorted(ENSEMBLE_REFERENCE.items()) for k in sorted(cells)],
        ids=lambda v: str(v),
    )
    def test_ensemble_cv_matches_reference(self, setting, name, kind):
        expected = ENSEMBLE_REFERENCE[(setting, name)][kind]
        assert ensemble_cv_mean(name, setting, kind) == pytest.approx(expected, abs=AUPR_TOLERANCE)

    def test_local_sampling_improves_on_base_in_most_cells(self):
        wins = 0
        for setting, name in sorted(ENSEMBLE_REFERENCE):
            if ensemble_cv_mean(name, setting, "local") >= tuned_cv_mean(name, setting, "wknnir"):
                wins += 1
        assert wins >= 10


class TestPredictionBounds:
    def _queries(self, n, m, seed):
        rng = np.random.default_rng(seed)
        return rng.random((600, n)), rng.random((600, m)), rng.random((60, n)), rng.random((50, m))

    def _model(self, method, ds, k, eta):
        if method == "ensemble":
            return train_ensemble(
                ds, lambda sub: fit_wknnir(sub, k, eta), 6, 0.8, SamplingStrategy("local", k=2), seed=3
            )
        return base_factory(method)(ds, k, eta)

    def _scored_pairs_in_bounds(self, model, n, m, seed):
        s2_profiles, s3_profiles, s4_drugs, s4_targets = self._queries(n, m, seed)
        total = 0
        for scores in (
            model.predict_s2(s2_profiles),
            model.predict_s3(s3_profiles),
            model.predict_s4(s4_drugs, s4_targets),
        ):
            assert np.all(scores >= 0) and np.all(scores <= 1)
            total += scores.size
        return total

    @pytest.mark.parametrize("method", ["wknn", "wknnir", "ensemble"])
    def test_bounds_hold_on_random_queries(self, method):
        # 600x9 + 600x12 + 60x50 = 13,800 scored pairs per predictor.
        model = self._model(method, random_dataset(12, 9, seed=100), 3, 0.7)
        assert self._scored_pairs_in_bounds(model, 12, 9, seed=101) >= 10_000
        # With almost every label 1 and no decay, each score sits at the
        # top of its range, where rounding alone can push it above 1.
        dense = random_dataset(14, 12, seed=102, density=0.95)
        for k in (5, 8, 9):
            self._scored_pairs_in_bounds(self._model(method, dense, k, 1.0), 14, 12, seed=103 + k)


class TestRecoveryDominance:
    def test_recovered_matrices_dominate_and_keep_known_interactions(self):
        cases = [
            (random_dataset(5 + seed % 6, 4 + seed % 5, seed=seed), 1 + seed % 4, 0.1 + 0.09 * (seed % 10))
            for seed in range(30)
        ]
        # Large k, no decay and almost all ones: where the normalizer must
        # not round below the numerator.
        cases += [(random_dataset(14, 12, seed=500 + seed, density=0.95), k, 1.0) for seed in range(20) for k in (8, 9)]
        for ds, k, eta in cases:
            rec = fit_wknnir(ds, k, eta)
            known = ds.interactions == 1
            for matrix in (rec.y_drug, rec.y_target, rec.y_joint):
                assert np.all(matrix >= ds.interactions)
                assert np.all(matrix <= 1.0) and np.all(matrix >= 0.0)
                assert np.all(matrix[known] == 1.0)


class TestFormulaReductions:
    def test_identity_recovery_reduces_to_baseline(self):
        for seed in range(10):
            ds = random_dataset(8, 7, seed=seed)
            Y = ds.interactions
            reduced = WkNNIRModel(ds, 3, 0.7, Y, Y, Y, 0.5, 0.5)
            baseline = fit_wknn(ds, 3, 0.7)
            rng = np.random.default_rng(seed + 1000)
            dp, tp = rng.random((4, 8)), rng.random((4, 7))
            np.testing.assert_allclose(reduced.predict_s2(dp), baseline.predict_s2(dp), atol=1e-12)
            np.testing.assert_allclose(reduced.predict_s3(tp), baseline.predict_s3(tp), atol=1e-12)
            np.testing.assert_allclose(reduced.predict_s4(dp, tp), baseline.predict_s4(dp, tp), atol=1e-12)

    @pytest.mark.parametrize("method", ["wknn", "wknnir"])
    def test_single_member_full_ratio_ensemble_equals_base(self, method):
        for seed in range(10):
            ds = random_dataset(8, 7, seed=seed)
            factory = base_factory(method)
            base = factory(ds, 3, 0.8)
            ens = train_ensemble(ds, lambda sub: factory(sub, 3, 0.8), 1, 1.0, SamplingStrategy("uniform"), seed=seed)
            rng = np.random.default_rng(seed + 2000)
            dp, tp = rng.random((3, 8)), rng.random((3, 7))
            np.testing.assert_allclose(ens.predict_s2(dp), base.predict_s2(dp), atol=1e-12)
            np.testing.assert_allclose(ens.predict_s3(tp), base.predict_s3(tp), atol=1e-12)
            np.testing.assert_allclose(ens.predict_s4(dp, tp), base.predict_s4(dp, tp), atol=1e-12)


class TestOracleAgreement:
    def test_knn_matches_bruteforce_oracle(self):
        # top_k on every row and neighbor_table (self excluded) on square
        # matrices, both against a full sort by (-similarity, index).
        rng = np.random.default_rng(200)
        for _ in range(1000):
            size = int(rng.integers(2, 25))
            rows = size if rng.random() < 0.5 else int(rng.integers(1, 4))
            sims = rng.integers(0, 6, (rows, size)) / 5.0  # coarse grid forces ties
            assert_matches_oracle(sims, int(rng.integers(1, size + 1)))

    def test_aupr_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(201)
        for _ in range(1000):
            size = int(rng.integers(2, 35))
            scores = rng.integers(0, 5, size) / 4.0
            labels = (rng.random(size) < 0.4).astype(float)
            if labels.sum() == 0:
                labels[rng.integers(size)] = 1.0
            assert abs(aupr(scores, labels) - oracle_aupr(scores, labels)) <= 1e-12


class TestSamplingSimplex:
    @pytest.mark.parametrize("kind", ["uniform", "global", "local"])
    def test_probabilities_sum_to_one(self, kind):
        for seed in range(25):
            ds = random_dataset(5 + seed % 7, 4 + seed % 6, seed=300 + seed)
            for p in sampling_probabilities(ds, SamplingStrategy(kind, k=2)):
                assert np.all(p >= 0)
                assert abs(p.sum() - 1.0) <= 1e-12


class TestDeterminism:
    def test_cli_cv_runs_are_byte_identical(self, tmp_path):
        ds = random_dataset(9, 7, seed=400)
        files = [tmp_path / f"{part}.tsv" for part in ("interactions", "drug_sim", "target_sim")]
        save_dataset(ds, *files)
        argv = [
            "cv",
            "--interactions", str(files[0]), "--drug-sim", str(files[1]), "--target-sim", str(files[2]),
            "--setting", "S2", "--method", "wknnir", "--k", "2", "--eta", "0.6",
            "--ensemble", "els", "--q", "3", "--ratio", "0.9", "--li-k", "2",
            "--folds", "3", "--reps", "2", "--seed", "5",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

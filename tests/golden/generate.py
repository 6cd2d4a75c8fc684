"""Golden outputs: exact scores and CLI bytes that a refactor must reproduce.

Run from the repository root to regenerate the fixture:

    PYTHONPATH=src python tests/golden/generate.py

It writes three small seeded datasets as TSV under ``data/``, every
float64 score array to ``scores.npz`` and the output bytes of the CLI
commands in ``CLI_RUNS`` under ``cli/``, all next to this file.
``tests/test_golden.py`` recomputes everything with the same functions
and compares bit for bit. Regenerate only when output changes on
purpose, and say in CHANGES.md which entries moved and by how much.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from wknnir import DtiDataset, SamplingStrategy, fit_wknn, fit_wknnir, load_dataset, save_dataset, train_ensemble
from wknnir.cli import main

HERE = Path(__file__).resolve().parent
DATA_DIR = HERE / "data"
CLI_DIR = HERE / "cli"
SCORES = HERE / "scores.npz"

K_VALUES = (1, 3, 5, 7, 9)
ETA_VALUES = (0.5, 1.0)
METHODS = ("wknn", "wknnir", "ensemble")
QUERIES = 5  # new drugs and new targets scored per dataset

# name -> (drugs, targets, interaction density, quantised similarities, seed)
DATASETS = {
    "mixed": (12, 10, 0.3, False, 1),
    "ties": (11, 9, 0.35, True, 2),
    "dense": (14, 12, 0.95, False, 3),
}
# Two wknnir members on half of each side: some drugs and targets are in
# no member's sample, so the ensemble's S2 and S3 fallbacks run.
ENSEMBLE = {"q": 2, "R": 0.5, "strategy": SamplingStrategy("local", k=2), "seed": 0}


def _quantise(a):
    return np.round(a * 4) / 4


def make_dataset(name) -> DtiDataset:
    n, m, density, ties, seed = DATASETS[name]
    rng = np.random.default_rng(seed)

    def sym(size):
        a = rng.random((size, size))
        a = (a + a.T) / 2
        if ties:
            a = _quantise(a)
        np.fill_diagonal(a, 1.0)
        return a

    drug_sim, target_sim = sym(n), sym(m)
    Y = (rng.random((n, m)) < density).astype(float)
    return DtiDataset(
        tuple(f"d{i}" for i in range(n)), tuple(f"t{j}" for j in range(m)), drug_sim, target_sim, Y
    )


def query_profiles(name, size):
    """Seeded new-entity profiles: random rows, quantised rows and a zero row."""
    _, _, _, _, seed = DATASETS[name]
    rng = np.random.default_rng(seed + 100 + size)
    profiles = rng.random((QUERIES, size))
    profiles[1::2] = _quantise(profiles[1::2])
    profiles[-1] = 0.0
    return profiles


def fit(ds, method, k, eta):
    if method == "wknn":
        return fit_wknn(ds, k, eta)
    if method == "wknnir":
        return fit_wknnir(ds, k, eta)
    return train_ensemble(
        ds,
        lambda sub: fit_wknnir(sub, k, eta),
        ENSEMBLE["q"],
        ENSEMBLE["R"],
        ENSEMBLE["strategy"],
        seed=ENSEMBLE["seed"],
    )


def score_arrays(name) -> dict:
    """Every score array of one dataset, keyed ``name/method/k/eta/setting``."""
    ds = make_dataset(name)
    dp = query_profiles(name, ds.n)
    tp = query_profiles(name, ds.m)
    out = {}
    for method in METHODS:
        for k in K_VALUES:
            for eta in ETA_VALUES:
                model = fit(ds, method, k, eta)
                prefix = f"{name}/{method}/k{k}/eta{eta}"
                out[f"{prefix}/S2"] = model.predict_s2(dp)
                out[f"{prefix}/S3"] = model.predict_s3(tp)
                out[f"{prefix}/S4"] = model.predict_s4(dp, tp)
    return out


def uncovered(name, side) -> int:
    """Entities of one side that no ensemble member sampled."""
    ds = make_dataset(name)
    ens = fit(ds, "ensemble", 3, 0.5)
    size = ds.n if side == "drug" else ds.m
    seen = np.unique(np.concatenate([getattr(mem, f"{side}_subset") for mem in ens.members]))
    return size - seen.size


def data_paths(name):
    return [DATA_DIR / name / f"{part}.tsv" for part in ("interactions", "drug_sim", "target_sim")]


def _dataset_args(name):
    inter, drug, target = data_paths(name)
    return ["--interactions", str(inter), "--drug-sim", str(drug), "--target-sim", str(target)]


_SMALL_GRID = ["--grid-k", "1,3,9", "--grid-eta", "0.5,1.0"]

# run name -> (dataset, CLI arguments after the dataset flags)
CLI_RUNS = {
    "stats": ("mixed", ["stats", "--k", "3"]),
    "stats-ties": ("ties", ["stats", "--k", "5"]),
    "recover": ("mixed", ["recover", "--k", "9", "--eta", "1.0"]),
    "recover-dense": ("dense", ["recover", "--k", "9", "--eta", "1.0"]),
    "cv-s2": ("mixed", ["cv", "--setting", "S2", "--method", "wknnir", "--k", "3", "--eta", "0.5", "--folds", "3", "--reps", "2"]),
    "cv-s3-tuned": ("ties", ["cv", "--setting", "S3", "--method", "wknn", *_SMALL_GRID, "--inner-folds", "2", "--folds", "3", "--reps", "1"]),
    "cv-s4-els": (
        "mixed",
        ["cv", "--setting", "S4", "--method", "wknnir", "--k", "3", "--eta", "1.0", "--ensemble", "els",
         "--q", "3", "--ratio", "0.6", "--li-k", "2", "--folds", "2", "--reps", "1", "--seed", "4"],
    ),
    "tune": ("mixed", ["tune", "--setting", "S2", "--method", "wknnir", *_SMALL_GRID, "--inner-folds", "3"]),
    "rank-novel": ("ties", ["rank-novel", "--setting", "S3", "--method", "wknnir", "--k", "3", "--eta", "0.5", "--folds", "3", "--top-n", "12"]),
}


def cli_outputs(run) -> dict:
    """Output files of one CLI run: ``stdout`` plus any files it wrote."""
    name, argv = CLI_RUNS[run]
    command, rest = argv[0], argv[1:]
    with tempfile.TemporaryDirectory() as tmp:
        extra = ["--out-dir", tmp] if command == "recover" else []
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([command, *_dataset_args(name), *rest, *extra])
        if code != 0:
            raise RuntimeError(f"CLI run {run!r} exited with {code}")
        files = {"stdout": buf.getvalue().encode("utf-8")}
        for path in sorted(Path(tmp).iterdir()):
            files[path.name] = path.read_bytes()
    return files


def main_generate():
    for name in DATASETS:
        DATA_DIR.joinpath(name).mkdir(parents=True, exist_ok=True)
        save_dataset(make_dataset(name), *data_paths(name))
        # The CLI reads the TSV files; they must round-trip exactly.
        loaded = load_dataset(*data_paths(name))
        assert np.array_equal(loaded.drug_sim, make_dataset(name).drug_sim)
        for side in ("drug", "target"):
            assert uncovered(name, side) > 0, f"{name}: every {side} is sampled; the fallback would not run"
    scores = {}
    for name in DATASETS:
        scores.update(score_arrays(name))
    np.savez(SCORES, **scores)
    for run in CLI_RUNS:
        run_dir = CLI_DIR / run
        run_dir.mkdir(parents=True, exist_ok=True)
        for old in run_dir.iterdir():
            old.unlink()
        for fname, data in cli_outputs(run).items():
            (run_dir / fname).write_bytes(data)
    print(f"wrote {len(scores)} score arrays and {len(CLI_RUNS)} CLI runs under {HERE}", file=sys.stderr)


if __name__ == "__main__":
    main_generate()

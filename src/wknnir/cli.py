"""Command-line interface for dataset checks, recovery dumps, and experiments.

Outputs are deterministic for a fixed configuration and seed: runs never
embed timestamps or machine state, so repeated invocations are
byte-identical. Dataset paths may be relative to --data-dir or to the
WKNNIR_DATA_DIR environment variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import warnings
from pathlib import Path

from .data import (
    ORIENTATIONS,
    DatasetError,
    load_dataset,
    write_matrix,
)
from .ensemble import SamplingStrategy
from .evaluation import (
    DEFAULT_GRID,
    INNER_FOLDS,
    OUTER_FOLDS,
    SETTINGS,
    CvPlan,
    ParamGrid,
    base_factory,
    ensemble_factory,
    fixed_learner,
    rank_novel,
    run_cv,
    tune_hyperparameters,
    tuned_learner,
)
from .imbalance import dataset_stats
from .models import fit_wknnir

__all__ = ["main"]

DATA_DIR_ENV = "WKNNIR_DATA_DIR"

# Flag value -> sampling strategy kind.
ENSEMBLE_FLAGS = {"ers": "uniform", "egs": "global", "els": "local"}


def _resolve(path: str, data_dir: str | None) -> str:
    base = data_dir or os.environ.get(DATA_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load(args):
    return load_dataset(
        _resolve(args.interactions, args.data_dir),
        _resolve(args.drug_sim, args.data_dir),
        _resolve(args.target_sim, args.data_dir),
        orientation=args.orientation,
    )


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _float_cell(x: float) -> str:
    return repr(float(x))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _int_list(text: str):
    return tuple(int(x) for x in text.split(","))


def _float_list(text: str):
    return tuple(float(x) for x in text.split(","))


def cmd_validate(args) -> int:
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ds = _load(args)
    except DatasetError as exc:
        print(f"error: {exc}")
        return 1
    for w in caught:
        print(f"warning: {w.message}")
    print(f"ok: {ds.n} drugs, {ds.m} targets, {int(ds.interactions.sum())} interactions")
    return 0


def cmd_stats(args) -> int:
    ds = _load(args)
    stats = dataset_stats(ds, args.k)
    report = stats.imbalance
    payload = {
        "n": stats.n,
        "m": stats.m,
        "interaction_count": stats.interaction_count,
        "sparsity": float(stats.sparsity),
        "sparsity_fraction": f"{stats.sparsity.numerator}/{stats.sparsity.denominator}",
        "k": report.k,
        "li_drug": report.li_drug,
        "li_target": report.li_target,
        "drug_importance": [float(x) for x in report.drug_importance],
        "target_importance": [float(x) for x in report.target_importance],
    }
    _emit(_json_text(payload), args.out)
    return 0


def cmd_recover(args) -> int:
    ds = _load(args)
    model = fit_wknnir(ds, args.k, args.eta)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("y_drug", "y_target", "y_joint"):
        write_matrix(out_dir / f"{name}.tsv", getattr(model, name), ds.drug_ids, ds.target_ids)
    print(f"li_drug={model.li_drug!r} li_target={model.li_target!r}")
    return 0


def _inner_folds(args) -> int:
    return args.inner_folds if args.inner_folds is not None else INNER_FOLDS[args.setting]


def _build_learner(args):
    """Fixed or tuned learner per flags, optionally wrapped in an ensemble."""
    factory = base_factory(args.method)
    if args.ensemble != "none":
        strategy = SamplingStrategy(ENSEMBLE_FLAGS[args.ensemble], args.sigma, args.li_k)
        final = ensemble_factory(args.method, args.q, args.ratio, strategy, args.seed)
    else:
        final = factory
    if (args.k is None) != (args.eta is None):
        raise ValueError("--k and --eta must be given together")
    if args.k is not None:
        return fixed_learner(final, args.k, args.eta)
    grid = ParamGrid(args.grid_k, args.grid_eta)
    return tuned_learner(factory, grid, args.setting, _inner_folds(args), args.seed, final_factory=final)


def _method_label(args) -> str:
    if args.ensemble == "none":
        return args.method
    return f"{args.ensemble}-{args.method}"


def cmd_cv(args) -> int:
    ds = _load(args)
    learner = _build_learner(args)
    folds = args.folds if args.folds is not None else OUTER_FOLDS[args.setting]
    plan = CvPlan(args.setting, folds, args.reps, args.seed)
    result = run_cv(ds, learner, plan, threads=args.threads)
    label = _method_label(args)
    rows = [
        (args.setting, label, fr.index, fr.repetition, _float_cell(fr.aupr))
        for fr in result.folds
    ]
    _emit(_csv_text(("setting", "method", "fold", "repetition", "aupr"), rows), args.out)
    print(f"mean_aupr={result.mean_aupr!r}")
    return 0


def cmd_tune(args) -> int:
    ds = _load(args)
    inner = _inner_folds(args)
    plan = CvPlan(args.setting, inner, repetitions=1, seed=args.seed)
    grid = ParamGrid(args.grid_k, args.grid_eta)
    best = tune_hyperparameters(ds, grid, plan, inner, base_factory(args.method))
    payload = {"setting": args.setting, "method": args.method, "k": best["k"], "eta": best["eta"]}
    _emit(_json_text(payload), args.out)
    return 0


def cmd_rank_novel(args) -> int:
    ds = _load(args)
    learner = _build_learner(args)
    ranked = rank_novel(ds, learner, args.setting, args.top_n, folds=args.folds, seed=args.seed)
    rows = [(d, t, _float_cell(s)) for d, t, s in ranked]
    _emit(_csv_text(("drug_id", "target_id", "score"), rows), args.out)
    return 0


def _add_dataset_args(p):
    p.add_argument("--interactions", required=True, help="interaction matrix TSV")
    p.add_argument("--drug-sim", required=True, help="drug similarity TSV")
    p.add_argument("--target-sim", required=True, help="target similarity TSV")
    p.add_argument(
        "--orientation",
        choices=ORIENTATIONS,
        default="drug-rows",
        help="what the interaction file rows are (default: drug-rows)",
    )
    p.add_argument(
        "--data-dir",
        default=None,
        help=f"base directory for relative dataset paths (default: ${DATA_DIR_ENV})",
    )


def _add_search_args(p):
    """Flags of tune, cv and rank-novel: setting, method, grid and output."""
    p.add_argument("--setting", choices=SETTINGS, required=True)
    p.add_argument("--method", choices=("wknn", "wknnir"), default="wknnir")
    p.add_argument("--grid-k", type=_int_list, default=DEFAULT_GRID.k_values, help="comma-separated k grid")
    p.add_argument("--grid-eta", type=_float_list, default=DEFAULT_GRID.eta_values, help="comma-separated eta grid")
    p.add_argument("--inner-folds", type=int, default=None, help="inner CV folds (default: 5 for S2/S3, 2 for S4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def _add_model_args(p):
    """Flags of cv and rank-novel: outer folds, fixed parameters and the ensemble."""
    _add_search_args(p)
    p.add_argument("--folds", type=int, default=None, help="outer folds (default: 10 for S2/S3, 3 for S4)")
    p.add_argument("--k", type=int, default=None, help="neighborhood size; omit to tune")
    p.add_argument("--eta", type=float, default=None, help="decay coefficient; omit to tune")
    p.add_argument("--ensemble", choices=("none", *ENSEMBLE_FLAGS), default="none")
    p.add_argument("--q", type=int, default=30, help="ensemble size")
    p.add_argument("--ratio", type=float, default=0.95, help="subset sampling ratio R")
    p.add_argument("--sigma", type=float, default=0.1, help="sampling smoothing")
    p.add_argument("--li-k", type=int, default=5, help="neighborhood size for local-imbalance sampling")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wknnir",
        description="Weighted nearest-neighbor drug-target interaction prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a dataset's format and invariants")
    _add_dataset_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="dataset statistics and local imbalance as JSON")
    _add_dataset_args(p)
    p.add_argument("--k", type=int, default=5, help="neighborhood size for local imbalance")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("recover", help="dump the recovered interaction matrices as TSV")
    _add_dataset_args(p)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--eta", type=float, default=0.8)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("cv", help="cross-validated AUPR as CSV")
    _add_dataset_args(p)
    _add_model_args(p)
    p.add_argument("--reps", type=int, default=2, help="CV repetitions")
    p.add_argument("--threads", type=int, default=1, help="max concurrent folds")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("tune", help="grid-search (k, eta) on the full dataset")
    _add_dataset_args(p)
    _add_search_args(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("rank-novel", help="top unobserved pairs by held-out score")
    _add_dataset_args(p)
    _add_model_args(p)
    p.add_argument("--top-n", type=int, default=10)
    p.set_defaults(func=cmd_rank_novel)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError) as exc:  # DatasetError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

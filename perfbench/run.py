"""Benchmark harness for wknnir: end-to-end metrics per workload, or a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid-tune --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-digests

A run sets up its workload several times (``setup_s`` is the median),
runs an untimed warm-up, then repeats passes until ``--seconds`` have
elapsed and enough operations were seen for the tail percentile.
Outputs are checked after each pass, outside its timing: invariants on
every seed, stored digests on seed 0. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` (operations) and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. The lines before it, prefixed ``#``, restate
every metric with its unit and give the environment.

With ``--trace 1`` untraced passes alternate with passes traced by
``tracer.Tracer``; per-layer counts are per pass, times
the median per pass, and ``trace.overhead_ratio`` is traced over
untraced median pass wall time. Spans are written to
``.bench_work/traces/``.

Only numpy and the standard library are used; wknnir is imported from
``src/`` of the checkout, so nothing is installed.
"""

from __future__ import annotations

import os

# One BLAS thread, so the two fold threads of cv-fixed never exceed nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import wknnir  # noqa: E402

if not Path(wknnir.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"wknnir was imported from {wknnir.__file__}, not from {ROOT / 'src'}")

from tracer import COUNT_METRICS, PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import FOLD_THREADS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 0  # digests are stored for this seed
# Set-up runs at least SETUP_MIN times and, while it has used under
# SETUP_BUDGET_S, up to SETUP_MAX times; setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 1.0
HARD_LIMIT_S = 120.0  # stop measuring here whatever --seconds says
WORK_DIR = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def _blas_threads():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh}
    for path in sorted(paths):
        if "openblas" in os.path.basename(path) and ".so" in path:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "fold_threads": FOLD_THREADS,
    }


class Tally:
    """Operations attempted and failed, and digest agreement, over a run."""

    def __init__(self, workload, seed, tiny):
        self.attempted = self.failed = 0
        self.expected = None
        if seed == DEFAULT_SEED and DIGESTS.exists():
            stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
            self.expected = stored["tiny" if tiny else "full"].get(workload.name)
        self.digests: set = set()

    def record(self, ops, failed, digest):
        self.digests.add(digest)
        if self.expected is not None and digest != self.expected:
            failed = ops
        self.attempted += int(ops)
        self.failed += int(failed)


def measure(wl, seconds, tally, min_ops=0, tracer=None):
    """Repeat passes for about ``seconds`` and until ``min_ops`` operations ran.

    A pass starts only if it should end by ``seconds`` plus half a pass.
    """
    passes = []
    latencies = []
    start = perf_counter()
    while not passes or perf_counter() - start + passes[-1]["wall"] / 2 < seconds or len(latencies) < min_ops:
        if perf_counter() - start > HARD_LIMIT_S:
            break
        c0, t0 = process_time(), perf_counter()
        ops_s, failed, pairs, digest = [], wl.ops_per_pass, 0, None
        try:
            ops_s, outputs = wl.run_pass()
        except Exception:  # a pass that raises fails all its operations; the run goes on
            traceback.print_exc()
            outputs = None
        wall, cpu = perf_counter() - t0, process_time() - c0
        layers = tracer.take_pass() if tracer is not None else None
        if outputs is not None:
            try:
                failed, pairs, digest = wl.check(outputs)
            except Exception:
                traceback.print_exc()
        tally.record(wl.ops_per_pass, failed, digest)
        latencies += ops_s
        passes.append({"wall": wall, "cpu": cpu, "pairs": pairs, "layers": layers})
    return passes, latencies


def run(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns ``(result dict, notes, output digests seen)``."""
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        tally = Tally(WORKLOADS[name], seed, tiny)
        setups = []
        while not setups or not trace and (
            len(setups) < SETUP_MIN or len(setups) < SETUP_MAX and sum(setups) < SETUP_BUDGET_S
        ):
            # A fresh object each time, so one set-up's inputs are freed before the next.
            wl = None
            gc.collect()
            wl = WORKLOADS[name](tiny, workdir)
            t0 = perf_counter()
            wl.setup(seed)
            setups.append(perf_counter() - t0)
        wl.warmup()
        if trace:
            metrics, notes = _traced(wl, seconds, tally, name, seed)
        else:
            metrics, notes = _untraced(wl, seconds, tally, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes.append(f"error_rate = {tally.failed}/{tally.attempted} operations failed or raised")
    if tally.expected is not None:
        notes.append(f"digest on seed {DEFAULT_SEED}: {'match' if tally.digests == {tally.expected} else 'MISMATCH'}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes, tally.digests


def _untraced(wl, seconds, tally, setups):
    passes, latencies = measure(wl, seconds, tally, min_ops=wl.min_ops)
    wall = statistics.median(p["wall"] for p in passes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "op_p50_ms": _percentile(latencies, 50) * 1e3,
        "op_tail_ms": _percentile(latencies, wl.tail_pct) * 1e3,
        "pairs_per_s": statistics.median(p["pairs"] / p["wall"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"setup_s: median of {len(setups)} set-ups",
        f"wall_s, cpu_s, pairs_per_s: medians of {len(passes)} passes of {passes[0]['pairs']} test pairs",
        f"op_tail_ms is p{wl.tail_pct:g} of n={len(latencies)} operations",
    ]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, notes


def _traced(wl, seconds, tally, name, seed):
    # Untraced and traced passes alternate, so drift during the run hits both alike.
    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start + plain[-1]["wall"] + traced[-1]["wall"] / 2 < seconds:
        plain += measure(wl, 0.0, tally)[0]
        tracer.install()
        try:
            traced += measure(wl, 0.0, tally, tracer=tracer)[0]
        finally:
            tracer.uninstall()
        if perf_counter() - start > HARD_LIMIT_S:
            break
    tracer.write(str(WORK_DIR / "traces" / f"{name}-seed{seed}.jsonl"))
    per_pass = [p["layers"] for p in traced]
    values = {}
    for key in PER_LAYER_UNITS:
        if key == "trace.overhead_ratio":
            continue
        if key in COUNT_METRICS:
            values[key] = per_pass[0][key]
        else:
            values[key] = statistics.median(p[key] for p in per_pass)
    values["trace.overhead_ratio"] = statistics.median(p["wall"] for p in traced) / statistics.median(
        p["wall"] for p in plain
    )
    notes = [f"per-layer counts are per pass; times are medians of {len(traced)} traced passes"]
    unstable = [k for k in COUNT_METRICS if any(p[k] != per_pass[0][k] for p in per_pass)]
    if unstable:
        notes.append(f"counts differ between passes: {', '.join(unstable)}")
        tally.failed += 1
    return {k: (values[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}, notes


def write_digests():
    """Recompute the stored seed-0 digests from the current program."""
    stored = {}
    for size, tiny in (("full", False), ("tiny", True)):
        stored[size] = {}
        for name in WORKLOADS:
            wl = WORKLOADS[name](tiny, tempfile.mkdtemp(dir=WORK_DIR))
            try:
                wl.setup(DEFAULT_SEED)
                wl.warmup()
                _, outputs = wl.run_pass()
                stored[size][name] = wl.check(outputs)[3]
            finally:
                shutil.rmtree(wl.workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="quick check of the benchmark itself at tiny shapes")
    parser.add_argument("--write-digests", action="store_true", help="store seed-0 output digests of this program")
    args = parser.parse_args(argv)
    WORK_DIR.mkdir(exist_ok=True)
    if args.self_test:
        from selftest import self_test

        return self_test(run, END_TO_END_UNITS, DEFAULT_SEED)
    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, notes, _ = run(args.workload, args.seed, args.seconds, args.trace)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for key, metric in result["metrics"].items():
        print(f"# {key} = {metric['value']!r} {metric['unit']}")
    for note in notes:
        print(f"# {note}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

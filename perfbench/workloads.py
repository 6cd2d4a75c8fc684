"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one
untimed ``warmup``, then repeats ``run_pass``; ``check`` verifies a
pass's outputs after its timing has stopped and returns how many of its
operations failed plus a digest of the outputs. Every call into wknnir
goes through a module attribute looked up at call time (``wknnir.x``),
so the tracer's wrappers see it when they are installed.

- grid-tune: nested (k, eta) search, many refits of the same matrices;
  ``neighbors`` and ``imbalance`` dominate. Operation: one grid cell.
- cv-fixed: three ``wknnir cv`` CLI runs on tie-heavy TSV input at E
  shape, two fold threads; parsing, tie-heavy ranking, threading and CSV
  output. Operation: one outer fold.
- ensemble-els: q=30 els ensembles in S4 block CV; the sampler leads and
  member subsets arrive in draw order. Operation: one outer fold.
- score-batch: batches of new-entity profiles scored by fitted wknn and
  wknnir models; only the models' read path runs. Operation: one batch.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import threading
from time import perf_counter

import numpy as np

import wknnir
import wknnir.cli
import wknnir.evaluation

from datagen import SHAPES, TINY_SHAPES, check_valid, generate

K, ETA = 5, 0.8
FOLD_THREADS = min(2, os.cpu_count() or 1)


def _dataset(drug_sim, target_sim, interactions):
    n, m = interactions.shape
    return wknnir.DtiDataset(
        tuple(f"d{i}" for i in range(n)), tuple(f"t{j}" for j in range(m)), drug_sim, target_sim, interactions
    )


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _valid_aupr(value) -> bool:
    return math.isnan(value) or 0.0 <= value <= 1.0


@contextlib.contextmanager
def _patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class FoldClock:
    """Times each outer fold of ``run_cv`` from outside it.

    A fold starts at its ``subset`` call and ends when its ``FoldResult``
    is built, both looked up in ``wknnir.evaluation``; pool threads keep
    their own start time.
    """

    def __init__(self):
        self.latencies: list = []
        self.results: list = []
        self._local = threading.local()

    @contextlib.contextmanager
    def running(self):
        ev = wknnir.evaluation
        subset, fold_result = ev.subset, ev.FoldResult

        def timed_subset(*args, **kwargs):
            self._local.start = perf_counter()
            return subset(*args, **kwargs)

        def timed_fold_result(*args, **kwargs):
            result = fold_result(*args, **kwargs)
            self.latencies.append(perf_counter() - self._local.start)
            self.results.append(result)
            return result

        with _patched(ev, "subset", timed_subset), _patched(ev, "FoldResult", timed_fold_result):
            yield self


class Workload:
    name = ""
    tail_pct = 50.0  # highest percentile with at least 10 operations beyond it per run
    ops_per_pass = 0

    def __init__(self, tiny: bool, workdir: str):
        self.tiny = tiny
        self.workdir = workdir

    @property
    def min_ops(self) -> int:
        return math.ceil(10 / (1 - self.tail_pct / 100) - 1e-9)

    def setup(self, seed: int):
        raise NotImplementedError

    def warmup(self):
        self.run_pass()

    def run_pass(self):
        """Run one pass; returns ``(op latencies in s, outputs)``."""
        raise NotImplementedError

    def check(self, outputs):
        """Returns ``(failed ops, test pairs scored, digest)`` for one pass."""
        raise NotImplementedError


class GridTune(Workload):
    name = "grid-tune"
    tail_pct = 95.0
    ops_per_pass = len(wknnir.DEFAULT_GRID.k_values) * len(wknnir.DEFAULT_GRID.eta_values)

    def setup(self, seed):
        n, m, count = (TINY_SHAPES if self.tiny else SHAPES)["ic"]
        matrices = generate(n, m, count, seed)
        check_valid(*matrices)
        self.ds = _dataset(*matrices)
        if any(f.severity == "error" for f in wknnir.validate_dataset(self.ds)):
            raise ValueError("generated dataset fails validation")

    def run_pass(self):
        ev = wknnir.evaluation
        run_cv = ev.run_cv
        latencies, cells = [], []

        def timed_run_cv(*args, **kwargs):
            t0 = perf_counter()
            result = run_cv(*args, **kwargs)
            latencies.append(perf_counter() - t0)
            cells.append(result)
            return result

        with _patched(ev, "run_cv", timed_run_cv):
            best = self._tune(wknnir.DEFAULT_GRID)
        return latencies, (best, cells)

    def _tune(self, grid):
        plan = wknnir.CvPlan("S2", 5, repetitions=1, seed=0)
        return wknnir.tune_hyperparameters(self.ds, grid, plan, 5, factory=wknnir.fit_wknnir)

    def warmup(self):
        # Every k at one eta: all code paths and array sizes, a tenth of a pass.
        self._tune(wknnir.ParamGrid(wknnir.DEFAULT_GRID.k_values, (ETA,)))

    def check(self, outputs):
        best, cells = outputs
        grid = wknnir.DEFAULT_GRID
        failed = sum(
            not (0.0 <= r.mean_aupr <= 1.0 and all(_valid_aupr(f.aupr) for f in r.folds)) for r in cells
        )
        failed += self.ops_per_pass - len(cells)
        if best["k"] not in grid.k_values or best["eta"] not in grid.eta_values:
            failed = self.ops_per_pass
        pairs = sum(f.pairs for r in cells for f in r.folds)
        return failed, pairs, json.dumps(best, sort_keys=True)


class CvFixed(Workload):
    name = "cv-fixed"
    tail_pct = 95.0
    settings = ("S2", "S3", "S4")

    def setup(self, seed):
        n, m, count = (TINY_SHAPES if self.tiny else SHAPES)["e"]
        matrices = generate(n, m, count, seed, ties=True)
        check_valid(*matrices)
        self.paths = [os.path.join(self.workdir, f) for f in ("interactions.tsv", "drug_sim.tsv", "target_sim.tsv")]
        wknnir.save_dataset(_dataset(*matrices), *self.paths)

    def _argv(self, setting):
        interactions, drug_sim, target_sim = self.paths
        return [
            "cv", "--interactions", interactions, "--drug-sim", drug_sim, "--target-sim", target_sim,
            "--setting", setting, "--method", "wknnir", "--k", str(K), "--eta", str(ETA),
            "--reps", "2", "--threads", str(FOLD_THREADS), "--out", self._out(setting),
        ]  # fmt: skip

    def _out(self, setting):
        return os.path.join(self.workdir, f"cv-{setting}.csv")

    def warmup(self):
        # The library run with one thread is the reference every CLI pass must equal.
        ds = wknnir.load_dataset(*self.paths)
        self.expected = {}
        for setting in self.settings:
            plan = wknnir.CvPlan(setting, wknnir.OUTER_FOLDS[setting], repetitions=2, seed=0)
            result = wknnir.run_cv(ds, wknnir.fixed_learner(wknnir.fit_wknnir, K, ETA), plan, threads=1)
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(("setting", "method", "fold", "repetition", "aupr"))
            writer.writerows((setting, "wknnir", f.index, f.repetition, repr(float(f.aupr))) for f in result.folds)
            self.expected[setting] = buf.getvalue().encode("utf-8")
            self.ops_per_pass += len(result.folds)

    def run_pass(self):
        clock = FoldClock()
        codes = {}
        with clock.running(), contextlib.redirect_stdout(io.StringIO()):
            for setting in self.settings:
                codes[setting] = wknnir.cli.main(self._argv(setting))
        return clock.latencies, (codes, clock.results)

    def check(self, outputs):
        codes, results = outputs
        failed = sum(not _valid_aupr(r.aupr) for r in results)
        texts = []
        for setting in self.settings:
            want = self.expected[setting].splitlines()
            got = b""
            if codes[setting] == 0:
                with open(self._out(setting), "rb") as fh:
                    got = fh.read()
            texts.append(got)
            rows = got.splitlines()
            failed += sum(a != b for a, b in zip(want[1:], rows[1:])) + abs(len(want) - len(rows))
        pairs = sum(r.pairs for r in results)
        return min(failed, self.ops_per_pass), pairs, _sha(texts)


class EnsembleEls(Workload):
    name = "ensemble-els"
    tail_pct = 75.0
    ops_per_pass = 9  # 3 x 3 blocks, one repetition

    def setup(self, seed):
        n, m, count = (TINY_SHAPES if self.tiny else SHAPES)["ic"]
        matrices = generate(n, m, count, seed)
        check_valid(*matrices)
        self.ds = _dataset(*matrices)

    def _run_cv(self, q):
        strategy = wknnir.SamplingStrategy("local", sigma=0.1, k=5)
        factory = wknnir.ensemble_factory("wknnir", q=q, ratio=0.95, strategy=strategy, seed=0)
        plan = wknnir.CvPlan("S4", 3, repetitions=1, seed=0)
        return wknnir.run_cv(self.ds, wknnir.fixed_learner(factory, K, ETA), plan, threads=1)

    def warmup(self):
        # Three members instead of 30: all code paths, a tenth of a pass.
        self._run_cv(q=3)

    def run_pass(self):
        clock = FoldClock()
        with clock.running():
            result = self._run_cv(q=30)
        return clock.latencies, result

    def check(self, result):
        values = np.array([f.aupr for f in result.folds], dtype=float)
        failed = sum(not _valid_aupr(v) for v in values)
        failed += self.ops_per_pass - len(values)
        return failed, sum(f.pairs for f in result.folds), _sha([values.tobytes()])


class ScoreBatch(Workload):
    name = "score-batch"
    tail_pct = 99.0

    def setup(self, seed):
        n, m, count = (TINY_SHAPES if self.tiny else SHAPES)["e"]
        held, self.batch = (8, 4) if self.tiny else (128, 64)
        matrices = generate(n, m, count, seed, held_drugs=held, held_targets=held)
        check_valid(*matrices)
        full = _dataset(*matrices)
        train = wknnir.subset(full, np.arange(n), np.arange(m))
        self.models = (wknnir.fit_wknn(train, K, ETA), wknnir.fit_wknnir(train, K, ETA))
        self.drug_profiles = np.array(full.drug_sim[n:, :n])
        self.target_profiles = np.array(full.target_sim[m:, :m])
        self.shapes = []  # expected score shape of each batch call, in call order
        for lo in range(0, held, self.batch):
            u = min(self.batch, held - lo)
            self.shapes += [(u, m), (u, n), (u, u)] * len(self.models)
        self.ops_per_pass = len(self.shapes)

    def run_pass(self):
        latencies, scores = [], []
        for lo in range(0, self.drug_profiles.shape[0], self.batch):
            drugs = self.drug_profiles[lo : lo + self.batch]
            targets = self.target_profiles[lo : lo + self.batch]
            for model in self.models:
                for call, args in (
                    (model.predict_s2, (drugs,)),
                    (model.predict_s3, (targets,)),
                    (model.predict_s4, (drugs, targets)),
                ):
                    t0 = perf_counter()
                    out = call(*args)
                    latencies.append(perf_counter() - t0)
                    scores.append(out)
        return latencies, scores

    def check(self, scores):
        failed = sum(
            s.shape != shape or not np.all(np.isfinite(s)) or s.min() < 0.0 or s.max() > 1.0
            for s, shape in zip(scores, self.shapes)
        )
        failed += self.ops_per_pass - len(scores)
        return failed, sum(s.size for s in scores), _sha([s.tobytes() for s in scores])


WORKLOADS = {w.name: w for w in (GridTune, CvFixed, EnsembleEls, ScoreBatch)}

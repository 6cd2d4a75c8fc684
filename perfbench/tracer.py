"""Spans and counters recorded from outside wknnir, at its module boundaries.

``Tracer.install`` replaces every public wknnir function at every module
binding that holds it (``from x import y`` copies the name, so
``neighbor_table`` sits in ``wknnir.neighbors``, ``wknnir.models`` and
``wknnir.imbalance``) with one shared wrapper, and wraps the public
``predict*`` methods of the model and ensemble classes. ``uninstall``
puts every original back.

Each thread keeps its own span stack, so self time (a span's duration
minus the time its child spans cover) stays right when folds run on a
thread pool. Spans are held in memory; ``take_pass`` turns the spans and
counters of one workload pass into per-layer metrics and ``write``
saves every span as JSON lines at the end of the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import types
import zlib
from time import perf_counter

import numpy as np

LAYERS = ("data", "neighbors", "imbalance", "models", "ensemble", "evaluation", "cli")
MODULES = ("wknnir", *(f"wknnir.{layer}" for layer in LAYERS))
# Classes whose public methods are spans: (module, class name, span prefix).
METHOD_CLASSES = (
    ("wknnir.models", "_NeighborPredictor", "models"),
    ("wknnir.ensemble", "EnsembleModel", "ensemble.EnsembleModel"),
)

# Per-layer metric name -> unit. Every traced run reports all of them; a
# layer the workload never calls reads 0.
PER_LAYER_UNITS = {
    "neighbors.neighbor_table.calls": "count",
    "neighbors.neighbor_table.self_s": "s",
    "neighbors.neighbor_table.elements_sorted": "count",
    "neighbors.distinct_ratio": "ratio",
    "neighbors.self_s": "s",
    "imbalance.calls": "count",
    "imbalance.self_s": "s",
    "imbalance.distinct_ratio": "ratio",
    "models.build_recovery.calls": "count",
    "models.build_recovery.self_s": "s",
    "models.predict_s2.calls": "count",
    "models.predict_s2.self_s": "s",
    "models.predict_s2.pairs": "count",
    "models.predict_s3.calls": "count",
    "models.predict_s3.self_s": "s",
    "models.predict_s3.pairs": "count",
    "models.predict_s4.calls": "count",
    "models.predict_s4.self_s": "s",
    "models.predict_s4.pairs": "count",
    "models.predict_s4.kernel_terms": "count",
    "models.self_s": "s",
    "ensemble.sample_without_replacement.calls": "count",
    "ensemble.sample_without_replacement.self_s": "s",
    "ensemble.sample_without_replacement.draws": "count",
    "ensemble.train_ensemble.self_s": "s",
    "ensemble.members_fitted": "count",
    "ensemble.fallback_cols": "count",
    "ensemble.self_s": "s",
    "data.load_dataset.self_s": "s",
    "data.load_dataset.bytes_read": "bytes",
    "data.subset.calls": "count",
    "data.subset.self_s": "s",
    "data.subset.bytes_copied": "bytes",
    "data.self_s": "s",
    "evaluation.aupr.calls": "count",
    "evaluation.aupr.self_s": "s",
    "evaluation.aupr.pairs": "count",
    "evaluation.generate_folds.self_s": "s",
    "evaluation.threads_busy_ratio": "ratio",
    "evaluation.self_s": "s",
    "cli.main.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}

# Metrics that must repeat exactly from one pass (and one run) to the next:
# every count, and the ratios of counts.
COUNT_METRICS = tuple(
    name
    for name, unit in PER_LAYER_UNITS.items()
    if unit in ("count", "bytes") or name.endswith(".distinct_ratio")
)


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _fingerprint(arr) -> tuple:
    a = np.ascontiguousarray(arr)
    return a.shape, zlib.crc32(a.tobytes())


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._patches: list = []
        self._fan_out: list = []  # open frames whose work runs on a thread pool
        self.spans: list = []  # every span of the run, for ``write``
        self._reset_pass()

    # -- recording --------------------------------------------------------

    def _reset_pass(self):
        self._pass_spans: list = []
        self._counts: dict = {}
        self._matrices: set = set()
        self._datasets: set = set()

    def _add(self, key, value):
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)
        fans_out = name in FAN_OUT

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, pooled = stack[-1], False
            else:
                # A thread's first span was handed to a pool by a span on another thread.
                parent = tracer._fan_out[-1] if tracer._fan_out else None
                pooled = parent is not None
            frame = [0.0, next(tracer._ids), name, []]  # same-thread child time, id, name, pool child intervals
            stack.append(frame)
            pool = fans_out and FAN_OUT[name](args, kwargs) > 1
            if pool:
                tracer._fan_out.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if pool:
                    tracer._fan_out.remove(frame)
            extra = None
            if hook is not None:
                # Hook time is tracer overhead: hide it from the parent's self time.
                extra = hook(tracer, parent, args, kwargs, result)
            t_end = perf_counter() if hook is not None else t1
            if pooled:
                parent[3].append((t0, t_end))
            elif parent is not None:
                parent[0] += t_end - t0
            own = t1 - t0 - frame[0] - _union_length(frame[3])
            span = (frame[1], parent[1] if parent else None, name, threading.get_ident(), t0, t1, own, extra)
            tracer._pass_spans.append(span)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        wrappers: dict = {}
        for modname in MODULES:
            module = importlib.import_module(modname)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("wknnir."):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{home.split('.', 1)[1]}.{obj.__name__}", obj)
                self._patch(module, attr, wrappers[obj])
        for modname, clsname, prefix in METHOD_CLASSES:
            cls = getattr(importlib.import_module(modname), clsname)
            for attr in ("predict", "predict_s2", "predict_s3", "predict_s4"):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", vars(cls)[attr]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def take_pass(self) -> dict:
        """Per-layer metrics of the spans recorded since the last call."""
        spans, counts = self._pass_spans, self._counts
        n_matrices, n_datasets = len(self._matrices), len(self._datasets)
        self.spans.extend(spans)
        self._reset_pass()

        calls: dict = {}
        self_s: dict = {}
        layer_self: dict = {}
        for _, _, name, _, _, _, own, _ in spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own

        def fn(name):
            return calls.get(name, 0), self_s.get(name, 0.0)

        out = {}
        for name in (
            "neighbors.neighbor_table",
            "models.build_recovery",
            "models.predict_s2",
            "models.predict_s3",
            "models.predict_s4",
            "ensemble.sample_without_replacement",
            "data.subset",
            "evaluation.aupr",
        ):
            out[f"{name}.calls"], out[f"{name}.self_s"] = fn(name)
        for name in ("ensemble.train_ensemble", "data.load_dataset", "evaluation.generate_folds"):
            out[f"{name}.self_s"] = fn(name)[1]
        for layer in ("data", "neighbors", "imbalance", "models", "ensemble", "evaluation"):
            out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        out["cli.main.self_s"] = layer_self.get("cli", 0.0)
        for key in (
            "neighbors.neighbor_table.elements_sorted",
            "imbalance.calls",
            "models.predict_s2.pairs",
            "models.predict_s3.pairs",
            "models.predict_s4.pairs",
            "models.predict_s4.kernel_terms",
            "ensemble.sample_without_replacement.draws",
            "ensemble.members_fitted",
            "ensemble.fallback_cols",
            "data.load_dataset.bytes_read",
            "data.subset.bytes_copied",
            "evaluation.aupr.pairs",
        ):
            out[key] = counts.get(key, 0)
        nt_calls = out["neighbors.neighbor_table.calls"]
        out["neighbors.distinct_ratio"] = n_matrices / nt_calls if nt_calls else 0.0
        out["imbalance.distinct_ratio"] = n_datasets / out["imbalance.calls"] if out["imbalance.calls"] else 0.0
        out["evaluation.threads_busy_ratio"] = _busy_ratio(spans)
        out["trace.spans"] = len(spans)
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, thread, t0, t1, own, extra in self.spans:
                row = {"id": sid, "parent": parent, "name": name, "thread": thread, "start": t0, "end": t1, "self_s": own}
                if extra is not None:
                    row["threads"] = extra
                fh.write(json.dumps(row) + "\n")


def _busy_ratio(spans) -> float:
    """Sum of per-thread busy time over (wall x threads) of outermost run_cv spans.

    Busy time is the summed duration of the run_cv span's children: the
    folds it ran, on its own thread or on its pool's threads.
    """
    by_id = {s[0]: s for s in spans}
    busy_by_parent: dict = {}
    for s in spans:
        busy_by_parent[s[1]] = busy_by_parent.get(s[1], 0.0) + (s[5] - s[4])

    def inside_run_cv(span):
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == "evaluation.run_cv":
                return True
            parent = by_id.get(parent[1])
        return False

    busy = capacity = 0.0
    for s in spans:
        if s[2] == "evaluation.run_cv" and not inside_run_cv(s):
            busy += busy_by_parent.get(s[0], 0.0)
            capacity += (s[5] - s[4]) * s[7]
    return busy / capacity if capacity else 0.0


# -- counters recorded where the work happens -----------------------------
# Each hook gets (tracer, parent frame, call args, call kwargs, result) and
# may return a value stored on the span.


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _neighbor_table(tr, parent, args, kwargs, result):
    sim = _arg(args, kwargs, 0, "similarity")
    tr._add("neighbors.neighbor_table.elements_sorted", int(np.size(sim)))
    key = _fingerprint(sim)
    with tr._lock:
        tr._matrices.add(key)


def _imbalance(tr, parent, args, kwargs, result):
    if parent is not None and parent[2].startswith("imbalance."):
        return None  # nested call inside the imbalance layer
    ds = _arg(args, kwargs, 0, "ds")
    k = _arg(args, kwargs, 1, "k")
    key = (_fingerprint(ds.drug_sim), _fingerprint(ds.target_sim), _fingerprint(ds.interactions), k)
    tr._add("imbalance.calls", 1)
    with tr._lock:
        tr._datasets.add(key)
    return None


def _predict(setting):
    def hook(tr, parent, args, kwargs, result):
        tr._add(f"models.predict_{setting}.pairs", int(np.size(result)))
        if setting == "s4":
            model = args[0]
            kd = min(model.k, model.dataset.n)
            kt = min(model.k, model.dataset.m)
            tr._add("models.predict_s4.kernel_terms", int(np.size(result)) * kd * kt)

    return hook


def _ensemble_predict(side):
    def hook(tr, parent, args, kwargs, result):
        ens = args[0]
        size = ens.dataset.m if side == "target" else ens.dataset.n
        covered = np.unique(np.concatenate([getattr(mem, f"{side}_subset") for mem in ens.members]))
        tr._add("ensemble.fallback_cols", size - covered.size)

    return hook


def _run_cv_threads(args, kwargs):
    return int(_arg(args, kwargs, 3, "threads", 1))


def _run_cv(tr, parent, args, kwargs, result):
    return _run_cv_threads(args, kwargs)


def _load_dataset(tr, parent, args, kwargs, result):
    paths = [_arg(args, kwargs, i, name) for i, name in enumerate(("interaction_path", "drug_sim_path", "target_sim_path"))]
    tr._add("data.load_dataset.bytes_read", sum(os.path.getsize(p) for p in paths))


def _subset(tr, parent, args, kwargs, result):
    tr._add("data.subset.bytes_copied", result.drug_sim.nbytes + result.target_sim.nbytes + result.interactions.nbytes)


# Spans that may hand work to a thread pool -> how many threads they use.
FAN_OUT = {"evaluation.run_cv": _run_cv_threads}

_HOOKS = {
    "neighbors.neighbor_table": _neighbor_table,
    **{
        f"imbalance.{fn}": _imbalance
        for fn in (
            "pair_imbalance_matrices",
            "pair_local_imbalance",
            "dataset_local_imbalance",
            "entity_importance",
            "imbalance_report",
        )
    },
    "models.predict_s2": _predict("s2"),
    "models.predict_s3": _predict("s3"),
    "models.predict_s4": _predict("s4"),
    "ensemble.EnsembleModel.predict_s2": _ensemble_predict("target"),
    "ensemble.EnsembleModel.predict_s3": _ensemble_predict("drug"),
    "ensemble.sample_without_replacement": lambda tr, p, a, kw, r: tr._add(
        "ensemble.sample_without_replacement.draws", int(_arg(a, kw, 1, "count"))
    ),
    "ensemble.train_ensemble": lambda tr, p, a, kw, r: tr._add("ensemble.members_fitted", len(r.members)),
    "evaluation.run_cv": _run_cv,
    "evaluation.aupr": lambda tr, p, a, kw, r: tr._add("evaluation.aupr.pairs", int(np.size(_arg(a, kw, 0, "scores")))),
    "data.load_dataset": _load_dataset,
    "data.subset": _subset,
}

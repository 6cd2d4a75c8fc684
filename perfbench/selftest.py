"""Quick self-test of the benchmark at tiny shapes (``run.py --self-test``).

Checks that every named metric is emitted with a unit, that seed-0
outputs match the stored digests, that per-layer counts repeat exactly
across two traced runs, and that grid-tune makes the calls the code
implies: 60 cells x 5 inner folds = 300 fits, each ranking four matrices
(two in recovery, two for local imbalance) and computing LI once.
"""

from __future__ import annotations

from tracer import COUNT_METRICS, PER_LAYER_UNITS
from workloads import WORKLOADS

SECONDS = 0.2


def self_test(run, end_to_end_units, default_seed) -> int:
    """Returns the exit code: 0 when every check passes."""
    problems = []
    for name in WORKLOADS:
        before = len(problems)
        result, notes, _ = run(name, default_seed, SECONDS, trace=0, tiny=True)
        if result["metrics"].keys() != end_to_end_units.keys():
            problems.append(f"{name}: end-to-end metrics {sorted(result['metrics'])}")
        if not all(m["unit"] for m in result["metrics"].values()):
            problems.append(f"{name}: a metric has no unit")
        if not result["correct"] or result["failed"]:
            problems.append(f"{name}: untraced run not correct: {notes}")
        if f"digest on seed {default_seed}: match" not in notes:
            problems.append(f"{name}: outputs do not match the stored digest")
        traced = [run(name, default_seed, SECONDS, trace=1, tiny=True)[0] for _ in range(2)]
        for res in traced:
            if res["metrics"].keys() != PER_LAYER_UNITS.keys():
                problems.append(f"{name}: per-layer metrics {sorted(res['metrics'])}")
            if not res["correct"]:
                problems.append(f"{name}: traced run not correct")
        first, second = (res["metrics"] for res in traced)
        for key in COUNT_METRICS:
            if first[key]["value"] != second[key]["value"]:
                problems.append(f"{name}: {key} differs across traced runs")
        if name == "grid-tune":
            for key, want in (("neighbors.neighbor_table.calls", 1200), ("imbalance.calls", 300)):
                if first[key]["value"] != want:
                    problems.append(f"grid-tune: {key} = {first[key]['value']}, expected {want}")
        print(f"# self-test {name}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print(f"# problem: {p}")
    return 1 if problems else 0

"""Golden outputs: today's scores and CLI bytes, reproduced bit for bit.

The fixture under ``tests/golden/`` is written by
``tests/golden/generate.py``; this test recomputes every entry with the
same functions. Unlike a rerun check, it catches a change that moves
output the same way on every run.

The stored bits were made with numpy 2.4 on x86-64 with AVX-512, where
numpy's SIMD ``power`` can round differently from the C library's
``pow``. The fixture sticks to eta in {0.5, 1.0}, whose integer powers
are exact everywhere, but the wknnir S4 decay at eta = 0.5 has
fractional exponents: on a platform that rounds those differently,
regenerate the fixture there before comparing a refactor.
"""

import numpy as np
import pytest

from golden import generate

STORED = dict(np.load(generate.SCORES))


def _mismatch(got, want) -> str:
    if got.shape != want.shape or got.dtype != want.dtype:
        return f"{got.shape} {got.dtype} vs stored {want.shape} {want.dtype}"
    differ = got.view(np.uint64) != want.view(np.uint64)
    return f"{int(differ.sum())} of {got.size} entries differ, max |delta| {np.max(np.abs(got - want))!r}"


@pytest.mark.parametrize("name", generate.DATASETS)
def test_dataset_files_match_generator(name, tmp_path):
    fresh = [tmp_path / path.name for path in generate.data_paths(name)]
    generate.save_dataset(generate.make_dataset(name), *fresh)
    for path, written in zip(generate.data_paths(name), fresh):
        assert written.read_bytes() == path.read_bytes(), f"{path.name} is stale"


@pytest.mark.parametrize("name", generate.DATASETS)
def test_scores_are_bit_identical(name):
    got = generate.score_arrays(name)
    want = {key: value for key, value in STORED.items() if key.startswith(f"{name}/")}
    assert got.keys() == want.keys()
    bad = {key: _mismatch(got[key], want[key]) for key in got if got[key].tobytes() != want[key].tobytes()}
    assert not bad, bad


@pytest.mark.parametrize("name", generate.DATASETS)
def test_ensemble_fallback_runs(name):
    assert generate.uncovered(name, "drug") > 0
    assert generate.uncovered(name, "target") > 0


@pytest.mark.parametrize("run", generate.CLI_RUNS)
def test_cli_output_is_byte_identical(run):
    got = generate.cli_outputs(run)
    run_dir = generate.CLI_DIR / run
    want = {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())}
    assert got.keys() == want.keys()
    for fname in got:
        assert got[fname] == want[fname], f"{run}/{fname} differs"

"""Property tests over generated similarity matrices.

top_k and neighbor_table equal a stable full sort. Each generated float64
matrix mixes distinct values, uniform in [-1, 1), with values drawn from
a small pool (so ties at the k-th place are common). The pool holds
arbitrary floats: NaN, signed zeros and infinities included.

On degenerate datasets (a side with one entity, all-zero rows and
columns, quantised ties, k >= n), every recovered entry and every score
of both models is finite and in [0, 1].
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wknnir import fit_wknn, fit_wknnir  # noqa: E402
from wknnir.neighbors import neighbor_table, top_k  # noqa: E402
from conftest import make_dataset  # noqa: E402

POOL_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, np.nan]), st.floats(width=64))
# k from the model grid most of the time, any k (often >= columns) otherwise.
KS = st.integers(1, 12) | st.integers(1, 70)


@st.composite
def matrices(draw, rows, cols):
    shape = (draw(rows), draw(cols))
    pool = np.array(draw(st.lists(POOL_VALUES, min_size=1, max_size=8)))
    distinct = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))  # share of distinct values
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sim = rng.choice(pool, size=shape)
    spread = rng.random(shape) < distinct
    sim[spread] = rng.uniform(-1.0, 1.0, int(spread.sum()))
    return sim


def stable_order(sim):
    """Every row's columns, best first: the full stable sort top_k must agree with."""
    return np.argsort(-sim, axis=1, kind="stable")


@settings(max_examples=300, deadline=None)
@given(sim=matrices(st.integers(0, 8), st.integers(0, 120)), k=KS)
def test_top_k_equals_stable_argsort(sim, k):
    before = sim.tobytes()
    idx, vals = top_k(sim, k)
    assert sim.tobytes() == before
    want = stable_order(sim)[:, :k]
    assert idx.dtype == want.dtype
    np.testing.assert_array_equal(idx, want)
    np.testing.assert_array_equal(vals, np.take_along_axis(sim, want, axis=1))


@settings(max_examples=200, deadline=None)
@given(sim=matrices(st.shared(st.integers(0, 60), key="n"), st.shared(st.integers(0, 60), key="n")), k=KS)
def test_neighbor_table_equals_stable_argsort_without_self(sim, k):
    n = sim.shape[0]
    idx, vals = neighbor_table(sim, k)
    order = stable_order(sim)
    width = max(0, min(k, n - 1))
    want = np.array([[j for j in order[i] if j != i][:width] for i in range(n)], dtype=np.intp).reshape(n, width)
    assert idx.shape == vals.shape == want.shape and idx.dtype == want.dtype
    np.testing.assert_array_equal(idx, want)
    np.testing.assert_array_equal(vals, np.take_along_axis(sim, want, axis=1))


@st.composite
def degenerate_cases(draw):
    """(dataset, k, eta, drug profiles, target profiles) from the corners of the models' input."""
    n, m = draw(st.integers(1, 2) | st.integers(1, 12)), draw(st.integers(1, 2) | st.integers(1, 12))
    levels = draw(st.sampled_from([None, 1, 2, 4]))  # None: distinct values; else quantised, tie-heavy
    zero_share = draw(st.sampled_from([0.0, 0.3, 1.0]))  # of all-zero similarity rows, label rows and columns
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape):
        a = rng.random(shape)
        return a if levels is None else np.round(a * levels) / levels

    def sim(size):
        a = np.triu(values((size, size)), 1)
        a = a + a.T
        zero = rng.random(size) < zero_share
        a[zero, :] = a[:, zero] = 0.0
        np.fill_diagonal(a, 1.0)
        return a

    Y = (rng.random((n, m)) < density).astype(float)
    Y[rng.random(n) < zero_share, :] = 0.0
    Y[:, rng.random(m) < zero_share] = 0.0
    dp, tp = values((3, n)), values((3, m))
    dp[rng.random(3) < zero_share] = 0.0
    tp[rng.random(3) < zero_share] = 0.0
    k = draw(st.integers(1, 14))  # often >= a side
    eta = draw(st.sampled_from([0.0, 0.5, 0.8, 1.0]))
    return make_dataset(sim(n), sim(m), Y), k, eta, dp, tp


@settings(max_examples=300, deadline=None)
@given(case=degenerate_cases())
def test_degenerate_datasets_score_in_unit_interval(case):
    ds, k, eta, dp, tp = case
    for fit in (fit_wknn, fit_wknnir):
        model = fit(ds, k, eta)
        outputs = {
            "y_drug": model.y_drug,
            "y_target": model.y_target,
            "y_joint": model.y_joint,
            "S2": model.predict_s2(dp),
            "S3": model.predict_s3(tp),
            "S4": model.predict_s4(dp, tp),
        }
        for name, out in outputs.items():
            # Phrased so that NaN fails too.
            assert np.all((out >= 0) & (out <= 1)), f"{fit.__name__} {name} leaves [0, 1]"

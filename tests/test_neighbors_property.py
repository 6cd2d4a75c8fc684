"""Property test: top_k and neighbor_table equal a stable full sort.

Each generated float64 matrix mixes distinct values, uniform in [-1, 1),
with values drawn from a small pool (so ties at the k-th place are
common). The pool holds arbitrary floats: NaN, signed zeros and
infinities included.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wknnir.neighbors import neighbor_table, top_k  # noqa: E402

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
@given(sim=matrices(st.shared(st.integers(2, 60), key="n"), st.shared(st.integers(2, 60), key="n")), k=KS)
def test_neighbor_table_equals_stable_argsort_without_self(sim, k):
    n = sim.shape[0]
    idx, vals = neighbor_table(sim, k)
    order = stable_order(sim)
    want = np.array([[j for j in order[i] if j != i][: min(k, n - 1)] for i in range(n)])
    np.testing.assert_array_equal(idx, want)
    np.testing.assert_array_equal(vals, np.take_along_axis(sim, want, axis=1))

"""Property tests: TSV cells are read exactly as ``float()`` reads them.

``_parse_grid`` hands a body with one cell per column to numpy's C
reader; if that refuses it, every cell is read by ``float()`` and the
first bad one is named. Generated cells mix numbers in every spelling
``float()`` knows (padding, ``nan``, ``inf``, underscores, exponents,
non-ASCII digits) with arbitrary text.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wknnir import DatasetError  # noqa: E402
from wknnir.data import _parse_grid  # noqa: E402

# Characters that would end a line or a cell are left out: a cell holds neither.
CELL_CHARS = st.characters(blacklist_characters="\t\n\r\x0b\x0c\x1c\x1d\x1e\x85  ", blacklist_categories=("Cs",))
NUMERIC = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-Infinity", "+inf", "1_0", "1__0", "_1", "1e5", "1E-3", "2.5e+400"]),
    st.sampled_from(["٣", "١٢.5", "１", "१e2", "1e٣"]),  # non-ASCII digits
)
# What the C reader takes: plain decimals and repr floats, subnormals and -0.0 among them.
PLAIN = st.one_of(
    st.integers(-(10**6), 10**6).map(lambda i: f"{i / 1000:.3f}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["5e-324", "-0.0", "2.225073858507201e-308", "0.30000000000000004", "1.7976931348623157e+308"]),
)
# Cells a C reader with comments, quotes or other separators would read.
TRAPS = st.sampled_from(["1#", "0.5 #x", "#", '"1"', "'2'", "1,5", "0x1p0", "1;2"])
PADDING = st.sampled_from(["", " ", "  ", " ", "\xa0", " 　"])
CELLS = st.one_of(st.tuples(PADDING, NUMERIC, PADDING).map("".join), st.text(CELL_CHARS, max_size=6))


def per_cell(cell):
    """What the per-cell loop made of one cell: a float, or the error text."""
    stripped = cell.strip()
    if not stripped:
        return "missing"
    try:
        return float(stripped)
    except ValueError:
        return "non-numeric"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cells=st.lists(CELLS, min_size=1, max_size=4), blank=st.integers(0, 2))
def test_cells_read_as_float_reads_them(tmp_path, cells, blank):
    path = tmp_path / "m.tsv"
    ids = [f"c{j}" for j in range(len(cells))]
    text = "\t".join(["", *ids]) + "\n" + "\n" * blank + "\t".join(["r0", *cells]) + "\n"
    path.write_text(text, encoding="utf-8")
    want = [per_cell(c) for c in cells]
    bad = next((j for j, w in enumerate(want) if isinstance(w, str)), None)
    if bad is None:
        _, _, matrix = _parse_grid(path)
        assert matrix.tobytes() == np.array([want], dtype=float).tobytes()
        return
    lineno = 2 + blank
    message = (
        f"{path}:{lineno}: missing value in column {bad + 1}"
        if want[bad] == "missing"
        else f"{path}:{lineno}: non-numeric value {cells[bad].strip()!r}"
    )
    with pytest.raises(DatasetError) as err:
        _parse_grid(path)
    assert str(err.value) == message


def expected_error(path, lineno, cells):
    """The error the per-cell loop raises for a row, or None if it reads."""
    for col, cell in enumerate(cells, start=1):
        got = per_cell(cell)
        if got == "missing":
            return f"{path}:{lineno}: missing value in column {col}"
        if got == "non-numeric":
            return f"{path}:{lineno}: non-numeric value {cell.strip()!r}"
    return None


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    width=st.integers(1, 4),
    rows=st.lists(
        st.tuples(
            st.lists(st.one_of(PLAIN, PLAIN, PLAIN, CELLS, TRAPS), min_size=4, max_size=4),
            st.sampled_from(["", "\n", "\n \t\n"]),  # blank lines before the row
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_rows_read_alike_on_either_path(tmp_path, width, rows):
    # Mostly plain cells: many files go through the C reader, others fall back on one row.
    path = tmp_path / "m.tsv"
    lines = ["\t".join(["", *(f"c{j}" for j in range(width))])]
    message, want = None, []
    for r, (cells, blank) in enumerate(rows):
        cells = cells[:width]
        lines.append(blank + "\t".join([f" r{r}\xa0", *cells]))
        lineno = "\n".join(lines).count("\n") + 1
        message = message or expected_error(path, lineno, cells)
        want.append([per_cell(c) for c in cells])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if message is None:
        row_ids, _, matrix = _parse_grid(path)
        assert row_ids == [f"r{r}" for r in range(len(rows))]
        assert matrix.tobytes() == np.array(want, dtype=float).tobytes()
        return
    with pytest.raises(DatasetError) as err:
        _parse_grid(path)
    assert str(err.value) == message

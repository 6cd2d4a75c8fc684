"""Loading, validation, and writing of DTI benchmark datasets.

A dataset binds three matrices: a drug-drug similarity matrix, a
target-target similarity matrix, and a binary drug-target interaction
matrix. The in-memory convention is fixed: interaction rows are drugs,
columns are targets. On-disk files are UTF-8, tab-separated, with one
header row of column IDs and one header column of row IDs; the corner
cell is ignored. Public benchmark distributions ship the adjacency file
with target rows, so the loader accepts both orientations and transposes
on load.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "DatasetError",
    "Finding",
    "DtiDataset",
    "load_dataset",
    "save_dataset",
    "validate_dataset",
    "subset",
    "write_matrix",
]

DIAGONAL_TOL = 1e-9
SYMMETRY_TOL = 1e-6

ORIENTATIONS = ("drug-rows", "target-rows")


class DatasetError(ValueError):
    """A dataset file or matrix violates the format contract."""


class Finding(NamedTuple):
    severity: str  # "error" or "warning"
    message: str


@dataclass(frozen=True, eq=False)
class DtiDataset:
    """Immutable, valid bundle of similarity and interaction matrices.

    Rows of ``interactions`` are drugs, columns are targets. ``drug_sim``
    is n x n, ``target_sim`` is m x m. Arrays are copied C-ordered, -0.0
    made +0.0, and marked read-only, so a dataset can be shared across
    threads. Building one raises :class:`DatasetError` on the errors that
    :func:`validate_dataset` reports and warns on asymmetry; only
    :func:`subset` skips that check.
    """

    drug_ids: tuple[str, ...]
    target_ids: tuple[str, ...]
    drug_sim: np.ndarray
    target_sim: np.ndarray
    interactions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "drug_ids", tuple(str(x) for x in self.drug_ids))
        object.__setattr__(self, "target_ids", tuple(str(x) for x in self.target_ids))
        for name in ("drug_sim", "target_sim", "interactions"):
            arr = np.array(getattr(self, name), dtype=float, order="C")
            arr += 0.0  # -0.0 becomes +0.0
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        findings = validate_dataset(self)
        if errors := [f.message for f in findings if f.severity == "error"]:
            raise DatasetError("; ".join(errors))
        for f in findings:
            warnings.warn(f.message, stacklevel=3)  # at the caller of DtiDataset(...)

    @property
    def n(self) -> int:
        return len(self.drug_ids)

    @property
    def m(self) -> int:
        return len(self.target_ids)

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(rows, cols)`` of the nonzero interactions, row-major."""
        pairs = np.nonzero(self.interactions != 0)  # the same pairs as np.nonzero(Y), found about twice as fast
        for a in pairs:
            a.setflags(write=False)
        return pairs


def _check_similarity(sim: np.ndarray, label: str, size: int, findings: list[Finding]):
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        findings.append(Finding("error", f"{label} similarity matrix is not square: shape {sim.shape}"))
        return
    if sim.shape[0] != size:
        findings.append(
            Finding("error", f"{label} similarity side {sim.shape[0]} does not match {label} count {size}")
        )
        return
    if not np.all((sim >= 0) & (sim <= 1)):  # phrased so that NaN fails too
        findings.append(Finding("error", f"{label} similarity values outside [0, 1]"))
    bad_diag = np.flatnonzero(np.abs(np.diag(sim) - 1.0) > DIAGONAL_TOL)
    if bad_diag.size:
        findings.append(
            Finding("error", f"{label} similarity diagonal not 1 at index {int(bad_diag[0])} (and {bad_diag.size - 1} more)")
        )
    asym = np.abs(sim - sim.T)
    if np.any(asym > SYMMETRY_TOL):
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        findings.append(
            Finding("warning", f"{label} similarity asymmetric: |S[{i},{j}] - S[{j},{i}]| = {asym[i, j]:.3g}")
        )


def validate_dataset(ds: DtiDataset) -> list[Finding]:
    """Check every dataset invariant; returns findings instead of raising.

    Errors cover empty sides, shape mismatches, duplicate IDs, non-binary
    interactions, and out-of-range or non-unit-diagonal similarities.
    Asymmetry beyond 1e-6 is only a warning. ``DtiDataset(...)`` raises on
    the errors, so a dataset built that way reports only warnings here.
    """
    findings: list[Finding] = []
    n, m = ds.n, ds.m
    if n < 1 or m < 1:
        findings.append(Finding("error", f"dataset must have at least one drug and one target (n={n}, m={m})"))
        return findings
    if len(set(ds.drug_ids)) != n:
        findings.append(Finding("error", "duplicate drug IDs"))
    if len(set(ds.target_ids)) != m:
        findings.append(Finding("error", "duplicate target IDs"))
    if ds.interactions.shape != (n, m):
        findings.append(
            Finding("error", f"interaction matrix shape {ds.interactions.shape} does not match (n, m) = ({n}, {m})")
        )
    else:
        y = ds.interactions
        if not ((y == 0.0) | (y == 1.0)).all():
            findings.append(Finding("error", "non-binary interaction values"))
    _check_similarity(ds.drug_sim, "drug", n, findings)
    _check_similarity(ds.target_sim, "target", m, findings)
    return findings


def _parse_grid(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Read a TSV matrix with a header row and header column.

    Blank lines are skipped; error messages give the file's own line
    numbers. Cells are read as ``float()`` reads them. A body whose
    lines all have one cell per column goes through numpy's C reader,
    which parses with the same routine but rejects underscores and
    non-ASCII digits; if it refuses the body, every cell is read by
    ``float()``, and the first bad one is named.
    """
    text = path.read_text(encoding="utf-8")
    lines = [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if len(lines) < 2:
        raise DatasetError(f"{path}: expected a header row and at least one data row")
    col_ids = [c.strip() for c in lines[0][1].split("\t")[1:]]
    m = len(col_ids)
    body = [ln for _, ln in lines[1:]]
    if m and all(ln.count("\t") == m for ln in body):
        try:
            out = np.loadtxt(body, delimiter="\t", comments=None, usecols=range(1, m + 1), ndmin=2)
        except ValueError:
            pass
        else:
            return [ln.split("\t", 1)[0].strip() for ln in body], col_ids, out
    row_ids: list[str] = []
    out = np.empty((len(body), m))
    for r, (lineno, line) in enumerate(lines[1:]):
        cells = line.split("\t")
        if len(cells) != m + 1:
            raise DatasetError(
                f"{path}:{lineno}: dimension mismatch: {len(cells) - 1} cells, header has {m} columns"
            )
        row_ids.append(cells[0].strip())
        values = []
        for col, cell in enumerate(cells[1:], start=1):
            try:
                values.append(float(cell.strip()))
            except ValueError:
                cell = cell.strip()
                what = f"non-numeric value {cell!r}" if cell else f"missing value in column {col}"
                raise DatasetError(f"{path}:{lineno}: {what}") from None
        out[r] = values
    return row_ids, col_ids, out


def _load_similarity(path: Path, wanted: tuple[str, ...], label: str) -> np.ndarray:
    """Read a similarity TSV and reorder it to the interaction-file ID order.

    Equal row and column ID lists make the matrix square.
    """
    ids, cols, matrix = _parse_grid(path)
    if ids != cols:
        raise DatasetError(f"{path}: row and column IDs differ")
    if len(ids) != len(wanted) or set(ids) != set(wanted):
        missing = sorted(set(wanted) - set(ids))[:3]
        extra = sorted(set(ids) - set(wanted))[:3]
        raise DatasetError(
            f"{path}: {label} IDs do not match interaction file (missing {missing}, unexpected {extra})"
        )
    pos = {x: i for i, x in enumerate(ids)}
    order = np.array([pos[x] for x in wanted])
    return matrix[np.ix_(order, order)]


def load_dataset(
    interaction_path,
    drug_sim_path,
    target_sim_path,
    orientation: str = "drug-rows",
) -> DtiDataset:
    """Load a dataset from three TSV files.

    ``orientation`` names what the interaction file's rows are. With
    ``"target-rows"`` the matrix is transposed on load, so the returned
    dataset always has drug rows. Similarity files may list entities in
    any order; they are matched by the interaction file's unique IDs and
    reordered to its order. A file that does not parse raises
    :class:`DatasetError`; building the dataset checks the matrices.
    """
    if orientation not in ORIENTATIONS:
        raise DatasetError(f"unknown orientation {orientation!r}; expected one of {ORIENTATIONS}")
    interaction_path = Path(interaction_path)
    row_ids, col_ids, inter = _parse_grid(interaction_path)
    if orientation == "target-rows":
        row_ids, col_ids = col_ids, row_ids
        inter = inter.T
    drug_ids, target_ids = tuple(row_ids), tuple(col_ids)
    if len(set(drug_ids)) != len(drug_ids):
        raise DatasetError(f"{interaction_path}: duplicate drug IDs")
    if len(set(target_ids)) != len(target_ids):
        raise DatasetError(f"{interaction_path}: duplicate target IDs")
    drug_sim = _load_similarity(Path(drug_sim_path), drug_ids, "drug")
    target_sim = _load_similarity(Path(target_sim_path), target_ids, "target")
    return DtiDataset(drug_ids, target_ids, drug_sim, target_sim, inter)


def _format_values(values: np.ndarray) -> np.ndarray:
    """Text of each finite value: a whole number as an integer (``0`` for -0.0 too), else Python's shortest repr."""
    whole = values == np.trunc(values)
    text = np.empty(values.shape, dtype=object)
    text[whole] = [str(int(x)) for x in values[whole].tolist()]
    text[~whole] = list(map(repr, values[~whole].tolist()))
    return text


def write_matrix(path, matrix: np.ndarray, row_ids, col_ids):
    """Write a 2-D matrix as TSV with ID header row and column; the corner cell is empty.

    ``ValueError`` if the IDs do not match the shape, hold a tab or line break,
    or start or end with whitespace: such a file would not read back. Also
    ``ValueError`` if a cell is NaN or infinite, naming the first such value
    in row-major order and its row and column IDs.
    """
    matrix, row_ids, col_ids = np.asarray(matrix), list(row_ids), list(col_ids)
    if matrix.ndim != 2 or matrix.shape != (len(row_ids), len(col_ids)):
        raise ValueError(f"{len(row_ids)} row IDs and {len(col_ids)} column IDs for a matrix of shape {matrix.shape}")
    if bad := [x for x in row_ids + col_ids if "\t" in x or x != x.strip() or "".join(x.splitlines()) != x]:
        raise ValueError(f"ID {bad[0]!r} holds a tab or a line break, or starts or ends with whitespace")
    if (nonfinite := np.flatnonzero(~np.isfinite(matrix))).size:
        i, j = divmod(int(nonfinite[0]), matrix.shape[1])
        value = matrix.flat[nonfinite[0]].item()
        raise ValueError(f"non-finite value {value!r} at row {row_ids[i]!r}, column {col_ids[j]!r}")
    # Each distinct value is formatted once; 0.0 and -0.0 are one value.
    values, inverse = np.unique(matrix, return_inverse=True)
    text = _format_values(values)
    lines = ["\t".join(["", *col_ids])]
    for rid, row in zip(row_ids, inverse.reshape(matrix.shape)):
        lines.append("\t".join([rid, *text[row].tolist()]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_dataset(ds: DtiDataset, interaction_path, drug_sim_path, target_sim_path):
    """Write a dataset back to the three-file TSV layout (drug rows)."""
    write_matrix(interaction_path, ds.interactions, ds.drug_ids, ds.target_ids)
    write_matrix(drug_sim_path, ds.drug_sim, ds.drug_ids, ds.drug_ids)
    write_matrix(target_sim_path, ds.target_sim, ds.target_ids, ds.target_ids)


def _take(arr: np.ndarray, idx: np.ndarray, axis: int) -> np.ndarray:
    """``arr.take(idx, axis)``, or ``arr`` itself if ``idx`` is the identity."""
    if idx.size == arr.shape[axis] and (idx == np.arange(idx.size)).all():
        return arr
    return arr.take(idx, axis=axis)


def _index(idx, size: int, side: str) -> np.ndarray:
    """``idx`` as an int array; ``ValueError`` if it holds a non-integer (a bool too), one outside [0, size) or a repeat."""
    idx = np.asarray(idx)
    if idx.size and (idx.dtype.kind not in "iu" or not 0 <= idx.min() <= idx.max() < size):
        raise ValueError(f"{side} indices must be integers in [0, {size}), not {idx.dtype} {idx.ravel()[:5].tolist()}")
    idx = idx.astype(int, copy=False)
    # A repeated entity would be its own nearest neighbor, under an ID that is no longer unique.
    seen = np.zeros(size, dtype=bool)
    seen[idx] = True
    if np.count_nonzero(seen) != idx.size:
        raise ValueError(f"{side} indices must be distinct, not {idx.ravel()[:5].tolist()}")
    return idx


def subset(ds: DtiDataset, drug_idx, target_idx) -> DtiDataset:
    """Slice a dataset to the given distinct drug/target indices, preserving order; a side kept whole is shared, not copied.

    It skips the check of ``DtiDataset(...)``: principal submatrices at
    distinct indices keep every checked property. An empty index set gives
    an empty side, which that check would refuse.
    """
    drug_idx = _index(drug_idx, ds.n, "drug")
    target_idx = _index(target_idx, ds.m, "target")
    # Rows, then columns: two one-axis gathers are cheaper than one np.ix_ gather.
    # Gathers and shared sides alike are C-contiguous float arrays, so they
    # are frozen in place; DtiDataset() would copy them once more.
    out = object.__new__(DtiDataset)
    vars(out).update(
        drug_ids=tuple(map(ds.drug_ids.__getitem__, drug_idx.tolist())),
        target_ids=tuple(map(ds.target_ids.__getitem__, target_idx.tolist())),
        drug_sim=_take(_take(ds.drug_sim, drug_idx, 0), drug_idx, 1),
        target_sim=_take(_take(ds.target_sim, target_idx, 0), target_idx, 1),
        interactions=_take(_take(ds.interactions, drug_idx, 0), target_idx, 1),
    )
    for arr in (out.drug_sim, out.target_sim, out.interactions):
        arr.setflags(write=False)
    return out


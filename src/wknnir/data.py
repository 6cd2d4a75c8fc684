"""Loading, validation, and summary statistics for DTI benchmark datasets.

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
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .imbalance import ImbalanceReport, imbalance_report

__all__ = [
    "DatasetError",
    "Finding",
    "DtiDataset",
    "DatasetStats",
    "load_dataset",
    "save_dataset",
    "validate_dataset",
    "dataset_stats",
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
    """Immutable bundle of similarity and interaction matrices.

    Rows of ``interactions`` are drugs, columns are targets. ``drug_sim``
    is n x n, ``target_sim`` is m x m. Arrays are copied and marked
    read-only so a dataset can be shared across threads.
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
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.drug_ids)

    @property
    def m(self) -> int:
        return len(self.target_ids)


@dataclass(frozen=True)
class DatasetStats:
    """Size, density, and local-imbalance summary of a dataset.

    ``sparsity`` is kept as an exact fraction interaction_count / (n*m);
    use ``float()`` for display.
    """

    n: int
    m: int
    interaction_count: int
    sparsity: Fraction
    imbalance: ImbalanceReport


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

    Errors cover shape mismatches, duplicate IDs, non-binary interactions,
    and out-of-range or non-unit-diagonal similarities. Asymmetry beyond
    1e-6 is only a warning.
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
        values = np.unique(ds.interactions)
        if not np.isin(values, (0.0, 1.0)).all():
            findings.append(Finding("error", "non-binary interaction values"))
    _check_similarity(ds.drug_sim, "drug", n, findings)
    _check_similarity(ds.target_sim, "target", m, findings)
    return findings


def _parse_grid(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Read a TSV matrix with a header row and header column."""
    text = path.read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise DatasetError(f"{path}: expected a header row and at least one data row")
    header = lines[0].split("\t")
    col_ids = [c.strip() for c in header[1:]]
    row_ids: list[str] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(col_ids) + 1:
            raise DatasetError(
                f"{path}:{lineno}: dimension mismatch: {len(cells) - 1} cells, header has {len(col_ids)} columns"
            )
        row_ids.append(cells[0].strip())
        values = []
        for col, cell in enumerate(cells[1:], start=1):
            cell = cell.strip()
            if not cell:
                raise DatasetError(f"{path}:{lineno}: missing value in column {col}")
            try:
                values.append(float(cell))
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-numeric value {cell!r}") from None
        rows.append(values)
    return row_ids, col_ids, np.array(rows, dtype=float)


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
    """Load and validate a dataset from three TSV files.

    ``orientation`` names what the interaction file's rows are. With
    ``"target-rows"`` the matrix is transposed on load, so the returned
    dataset always has drug rows. Similarity files may list entities in
    any order; they are matched by ID and reordered to the interaction
    file's order. Any error-level finding raises :class:`DatasetError`;
    warnings are emitted via :mod:`warnings`.
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
    if not np.isin(np.unique(inter), (0.0, 1.0)).all():
        raise DatasetError(f"{interaction_path}: non-binary interaction values")
    drug_sim = _load_similarity(Path(drug_sim_path), drug_ids, "drug")
    target_sim = _load_similarity(Path(target_sim_path), target_ids, "target")
    ds = DtiDataset(drug_ids, target_ids, drug_sim, target_sim, inter)
    findings = validate_dataset(ds)
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        raise DatasetError("; ".join(f.message for f in errors))
    for f in findings:
        warnings.warn(f.message, stacklevel=2)
    return ds


def _format_value(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return repr(float(x))


def write_matrix(path, matrix: np.ndarray, row_ids, col_ids):
    """Write a matrix as TSV with ID header row and column; the corner cell is empty."""
    path = Path(path)
    lines = ["\t".join(["", *col_ids])]
    for rid, row in zip(row_ids, np.asarray(matrix)):
        lines.append("\t".join([rid, *(_format_value(v) for v in row)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_dataset(ds: DtiDataset, interaction_path, drug_sim_path, target_sim_path):
    """Write a dataset back to the three-file TSV layout (drug rows)."""
    write_matrix(interaction_path, ds.interactions, ds.drug_ids, ds.target_ids)
    write_matrix(drug_sim_path, ds.drug_sim, ds.drug_ids, ds.drug_ids)
    write_matrix(target_sim_path, ds.target_sim, ds.target_ids, ds.target_ids)


def subset(ds: DtiDataset, drug_idx, target_idx) -> DtiDataset:
    """Slice a dataset to the given drug/target indices, preserving order."""
    drug_idx = np.asarray(drug_idx, dtype=int)
    target_idx = np.asarray(target_idx, dtype=int)
    # Rows, then columns: two one-axis gathers are cheaper than one np.ix_ gather.
    return DtiDataset(
        tuple(ds.drug_ids[i] for i in drug_idx),
        tuple(ds.target_ids[j] for j in target_idx),
        ds.drug_sim.take(drug_idx, axis=0).take(drug_idx, axis=1),
        ds.target_sim.take(target_idx, axis=0).take(target_idx, axis=1),
        ds.interactions.take(drug_idx, axis=0).take(target_idx, axis=1),
    )


def dataset_stats(ds: DtiDataset, k: int) -> DatasetStats:
    """Counts, exact sparsity, and the local-imbalance report at size k.

    ``imbalance_report`` rejects a k outside [1, side size - 1] and a
    dataset without interactions.
    """
    report = imbalance_report(ds, k)
    count = int(round(float(ds.interactions.sum())))
    return DatasetStats(ds.n, ds.m, count, Fraction(count, ds.n * ds.m), report)

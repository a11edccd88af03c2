"""Dataset ingestion, validation, and standardization transforms.

A :class:`Dataset` is an immutable n x m matrix of finite reals.  The
standardization used before building shifted-dot-product graphs is
``center_columns`` followed by ``scale_global(target_max_row_norm=1)``:
centering gives exact zero column sums, and scaling the whole matrix by one
global factor keeps them zero while forcing every pairwise dot product into
[-1, 1] by Cauchy-Schwarz.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """n x m matrix of data points, one row per point.

    Invariants: n >= 2, m >= 1, every entry finite.  The underlying array is
    marked read-only so instances are safe to share across threads.
    """

    points: np.ndarray
    column_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, order="C")
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D, got {pts.ndim}-D")
        if pts.shape[0] < 2:
            raise ValueError(f"need at least 2 data points, got {pts.shape[0]}")
        if pts.shape[1] < 1:
            raise ValueError("need at least 1 feature column")
        if not np.all(np.isfinite(pts)):
            bad = np.argwhere(~np.isfinite(pts))[0]
            raise ValueError(f"non-finite entry at row {bad[0]}, column {bad[1]}")
        if self.column_names is not None:
            names = tuple(self.column_names)
            if len(names) != pts.shape[1]:
                raise ValueError(
                    f"{len(names)} column names for {pts.shape[1]} columns"
                )
            object.__setattr__(self, "column_names", names)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]


def load_csv(path, has_header: bool = False, delimiter: str = ",") -> Dataset:
    """Read a numeric CSV file into a Dataset.

    Rows and columns in error messages are 1-based; the row count starts at
    the first data line (the header, when present, is not counted).
    Scientific notation is accepted; the decimal separator is always '.'.
    """
    if len(delimiter) != 1:
        raise ValueError(f"delimiter must be a single character, got {delimiter!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows = [row for row in reader if row]

    column_names = None
    if has_header:
        if not rows:
            raise ValueError(f"{path}: empty file, header expected")
        column_names = tuple(cell.strip() for cell in rows[0])
        rows = rows[1:]

    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(rows)}")

    width = len(rows[0])
    parsed = np.empty((len(rows), width), dtype=float)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"{path}: ragged row {i + 1} has {len(row)} cells, expected {width}"
            )
        for j, cell in enumerate(row):
            try:
                parsed[i, j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell at row {i + 1}, column {j + 1}: {cell!r}"
                ) from None

    return Dataset(parsed, column_names)


def write_csv(d: Dataset, path, delimiter: str = ",") -> None:
    """Write a Dataset as CSV with 17-significant-digit decimals.

    17 significant digits round-trip IEEE doubles exactly, so
    load_csv(write_csv(d)) reproduces d bit for bit.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        if d.column_names is not None:
            writer.writerow(d.column_names)
        for row in d.points:
            writer.writerow([format(x, ".17g") for x in row])


def center_columns(d: Dataset) -> Dataset:
    """Subtract each column's mean. Idempotent up to rounding."""
    return Dataset(d.points - d.points.mean(axis=0), d.column_names)


def scale_global(d: Dataset, target_max_row_norm: float) -> Dataset:
    """Multiply the whole matrix so the largest row norm equals the target.

    One global factor preserves row directions, singular-value ratios, and
    exact-zero column sums.  Rejects the all-zero matrix, whose scaling is
    undefined.
    """
    if target_max_row_norm <= 0:
        raise ValueError(f"target_max_row_norm must be positive, got {target_max_row_norm}")
    max_norm = np.sqrt((d.points**2).sum(axis=1).max())
    if max_norm == 0.0:
        raise ValueError("all-zero dataset: global scaling is undefined")
    return Dataset(d.points * (target_max_row_norm / max_norm), d.column_names)


def standardize(d: Dataset) -> Dataset:
    """Center columns, then scale so the largest row norm is 1.

    After this transform every pairwise dot product lies in [-1, 1], so the
    shifted dot-product weights 2 + x_i.x_j are at least 1, and column sums
    are zero, which pins every degree of that graph to exactly 2n.
    """
    return scale_global(center_columns(d), 1.0)

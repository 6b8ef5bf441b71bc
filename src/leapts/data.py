"""Dataset ingestion, chronological splitting, and sliding windows."""

from __future__ import annotations

import csv
import os
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = ["Dataset", "WindowBatch", "load_csv", "make_windows", "zscore_stats"]

SPLITS = ("train", "val", "test")
TIME_COLUMN_NAMES = {"t", "time", "date", "timestamp"}


@dataclass
class Dataset:
    values: np.ndarray  # [T x N]
    name: str = ""
    frequency: str = ""
    split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    columns: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"dataset values must be [T x N], got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise DataError("dataset contains non-finite values")
        if not all(0 <= f < np.inf for f in self.split_fractions):
            raise DataError(f"split fractions must be finite and >= 0, got {self.split_fractions}")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise DataError(f"split fractions must sum to 1, got {self.split_fractions}")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_variates(self) -> int:
        return self.values.shape[1]

    def split_bounds(self, split: str) -> tuple[int, int]:
        """Raw index range [start, end) of a split; computed before windowing."""
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r}; expected one of {SPLITS}")
        t = self.length
        f_train, f_val, _ = self.split_fractions
        b1 = int(t * f_train)
        b2 = int(t * (f_train + f_val))
        return {"train": (0, b1), "val": (b1, b2), "test": (b2, t)}[split]


@dataclass
class WindowBatch:
    inputs: np.ndarray  # [B x L x N]
    targets: np.ndarray  # [B x P x N]
    starts: np.ndarray  # raw start index of each window

    @property
    def n_windows(self) -> int:
        return self.inputs.shape[0]


def load_csv(path, name: str = "", frequency: str = "", split_fractions=(0.6, 0.2, 0.2)) -> Dataset:
    """Read a headered numeric CSV; a leading time column (named like 't'
    or 'date', or non-numeric) is dropped from the values. Rows are checked
    as they stream into one float64 buffer, so the first malformed row in
    file order is the one reported."""
    values, start_col = array("d"), None
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            width = len(header)
            for line, row in enumerate(rows, 2):
                if len(row) != width:
                    raise DataError(f"{path}: row {line} has {len(row)} cells, expected {width}")
                if start_col is None:  # a time column is named so, or text in the first row
                    time_col = bool(header) and header[0].strip().lower() in TIME_COLUMN_NAMES
                    start_col = int(time_col or (width > 1 and not _is_float(row[0])))
                    if start_col == width:
                        raise DataError(f"{path}: no numeric value columns")
                try:
                    values.extend(map(float, row[start_col:]))
                except ValueError:
                    j = next(j for j in range(start_col, width) if not _is_float(row[j]))
                    raise DataError(
                        f"{path}: non-numeric cell at row {line}, column {j + 1}: {row[j]!r}"
                    ) from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if start_col is None:
        raise DataError(f"{path}: no data rows")
    return Dataset(
        values=np.frombuffer(values).reshape(-1, width - start_col),
        name=name or os.path.splitext(os.path.basename(str(path)))[0],
        frequency=frequency,
        split_fractions=tuple(split_fractions),
        columns=header[start_col:],
    )


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def make_windows(dataset: Dataset, L: int, P: int, split: str, stride: int = 1) -> WindowBatch:
    """Sliding look-back/target windows confined to one split.

    Split boundaries are applied to raw indices before windowing, so no
    window ever straddles a split boundary.
    """
    if L < 1 or P < 1 or stride < 1:
        raise DataError(f"make_windows: need L, P, stride >= 1, got ({L}, {P}, {stride})")
    lo, hi = dataset.split_bounds(split)
    if hi - lo < L + P:
        raise DataError(
            f"split {split!r} has {hi - lo} points, too short for L+P = {L + P}"
        )
    starts = np.arange(lo, hi - L - P + 1, stride)
    inputs = np.stack([dataset.values[s : s + L] for s in starts])
    targets = np.stack([dataset.values[s + L : s + L + P] for s in starts])
    return WindowBatch(inputs=inputs, targets=targets, starts=starts)


def zscore_stats(values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of ``values`` along ``axis``, both kept with
    size 1 there: ``(values - mean) / std`` standardizes and ``z * std +
    mean`` inverts. A spread at or below 1e-8 becomes 1, so a constant
    series passes through with unit scale."""
    mean = values.mean(axis=axis, keepdims=True)
    std = values.std(axis=axis, keepdims=True)
    return mean, np.where(std > 1e-8, std, 1.0)

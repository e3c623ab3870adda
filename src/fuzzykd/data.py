"""Dataset loading, min-max normalization and stratified CV splitting."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np


class CsvParseError(ValueError):
    """CSV structure or content problem, located by row/column."""


def _check_finite(X: np.ndarray, name: str = "X") -> None:
    """Reject X's first nan or inf cell, naming its 1-based row and column."""
    if not np.isfinite(X).all():
        i, j = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"non-finite value {X[i, j]} in {name} at row "
                         f"{i + 1}, column {j + 1}")


def _class_indices(y, n_classes: int, name: str = "class index") -> np.ndarray:
    """y as a flat int array; its first entry not in 0..n_classes-1
    (negative, too large, fractional or nan) is named with its 1-based row."""
    y = np.asarray(y).ravel()
    bad = ~np.isin(y, np.arange(n_classes))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{name} {y[i]} at row {i + 1} is outside "
                         f"0..{n_classes - 1} for {n_classes} classes")
    return y.astype(int)


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    n_classes: int
    feature_names: list[str] = field(default_factory=list)
    class_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if self.X.shape[0] == 0:
            raise ValueError("X has no rows")
        self.y = _class_indices(self.y, self.n_classes)
        if self.y.size != self.X.shape[0]:
            raise ValueError("X and y disagree on the sample count")
        _check_finite(self.X)


def _numeric_column(path, values: list[str], col: int) -> list[float] | None:
    """Floats of one column, or None if any cell is not a number."""
    try:
        parsed = [float(v) for v in values]
    except ValueError:
        return None
    for i, p in enumerate(parsed):
        if not math.isfinite(p):
            raise CsvParseError(f"{path}: non-finite value {values[i]!r} at "
                                f"row {i + 1}, column {col + 1}")
    return parsed


def load_csv(path, header: bool = False, label_col: int = -1) -> Dataset:
    """Load a comma-separated dataset; the label column defaults to the last.

    label_col counts from 0, or from the end when negative, and must name
    one of the file's columns. A UTF-8 byte-order mark is skipped. Numeric
    feature columns are parsed as floats; columns containing any
    non-numeric cell are encoded as integers in first-appearance order.
    Numeric labels are mapped to 0..C-1 by sorted value, non-numeric labels
    in first-appearance order. Missing cells, ragged rows, numeric cells
    that parse to nan or +-inf and text the csv module cannot parse (such
    as a field over its size limit) are rejected.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = [row for row in ([cell.strip() for cell in row]
                                    for row in reader) if any(row)]
        except csv.Error as exc:
            raise CsvParseError(f"{path}: line {reader.line_num}: "
                                f"{exc}") from None
    if not rows:
        raise CsvParseError(f"{path}: file contains no data rows")
    names = None
    if header:
        names = rows[0]
        rows = rows[1:]
        if not rows:
            raise CsvParseError(f"{path}: no data rows after the header")
    width = len(rows[0])
    if not -width <= label_col < width:
        raise CsvParseError(f"{path}: label column {label_col} is out of "
                            f"range for {width} columns")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CsvParseError(f"{path}: row {i + 1} has {len(row)} cells, "
                                f"expected {width}")
        for j, cell in enumerate(row):
            if cell == "":
                raise CsvParseError(f"{path}: missing value at row {i + 1}, "
                                    f"column {j + 1}")
    label_col = label_col % width
    cols = list(zip(*rows))
    feat_idx = [j for j in range(width) if j != label_col]

    X = np.empty((len(rows), len(feat_idx)))
    for out_j, j in enumerate(feat_idx):
        values = cols[j]
        parsed = _numeric_column(path, values, j)
        if parsed is None:
            codes: dict[str, int] = {}
            parsed = [codes.setdefault(v, len(codes)) for v in values]
        X[:, out_j] = parsed

    labels = cols[label_col]
    numeric = _numeric_column(path, labels, label_col)
    if numeric is not None:
        uniq = sorted(set(numeric))
        code = {v: i for i, v in enumerate(uniq)}
        y = [code[v] for v in numeric]
        class_names = [f"{v:g}" for v in uniq]
    else:
        code = {}
        y = [code.setdefault(v, len(code)) for v in labels]
        class_names = list(code)

    feature_names = ([names[j] for j in feat_idx] if names
                     else [f"x{j + 1}" for j in range(len(feat_idx))])
    return Dataset(X, np.array(y), len(class_names), feature_names,
                   class_names)


def normalize(train_X: np.ndarray, apply_X: np.ndarray | None = None):
    """Min-max scale to [0, 1], fit on train_X; apply_X is clamped.

    Constant features map to 0. Returns (train_norm, apply_norm, params)
    where params is an m x 2 array of (min, max) pairs.
    """
    train_X = np.atleast_2d(np.asarray(train_X, dtype=float))
    if train_X.shape[0] == 0:
        raise ValueError("cannot fit normalization on an empty matrix")
    lo = train_X.min(axis=0)
    hi = train_X.max(axis=0)
    params = np.column_stack([lo, hi])

    def transform(M):
        span = np.where(hi > lo, hi - lo, 1.0)
        out = (M - lo) / span
        out[:, hi == lo] = 0.0
        return np.clip(out, 0.0, 1.0)

    train_norm = transform(train_X)
    apply_norm = None
    if apply_X is not None:
        apply_X = np.atleast_2d(np.asarray(apply_X, dtype=float))
        if apply_X.shape[1] != train_X.shape[1]:
            raise ValueError("apply_X feature count differs from train_X")
        apply_norm = transform(apply_X)
    return train_norm, apply_norm, params


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: np.ndarray

    def split(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train indices, test indices) for one fold."""
        test = np.flatnonzero(self.assignments == fold)
        train = np.flatnonzero(self.assignments != fold)
        return train, test


def stratified_folds(y: np.ndarray, k: int,
                     seed: int | None = None) -> FoldPlan:
    """Deterministic stratified fold assignment; per-class counts within 1."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    y = np.asarray(y, dtype=int).ravel()
    if k > y.size:
        raise ValueError(f"cannot split {y.size} samples into {k} folds")
    rng = np.random.default_rng(seed)
    assignments = np.empty(y.size, dtype=int)
    offset = 0
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        assignments[idx] = (np.arange(idx.size) + offset) % k
        offset += idx.size
    return FoldPlan(k, assignments)


def bundled_path(name: str):
    """Filesystem path of a dataset shipped with the package."""
    ref = resources.files("fuzzykd.datasets") / f"{name}.csv"
    if not ref.is_file():
        raise ValueError(f"no bundled dataset named {name!r}")
    return ref


def load_bundled(name: str) -> Dataset:
    return load_csv(bundled_path(name))

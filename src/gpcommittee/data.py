"""Synthetic 1-D benchmark data, CSV ingestion, and the normalization protocol.

Every loader returns a :class:`Dataset` whose training columns (inputs and
targets) are normalized to zero mean and unit variance; test data always uses
the training statistics, never its own.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# noise std of the synthetic target (variance 0.25)
TOY_NOISE_STD = 0.5
TOY_NOISE_VAR = TOY_NOISE_STD ** 2
TOY_TRAIN_RANGE = (0.0, 1.0)
TOY_TEST_RANGE = (-0.2, 1.2)


@dataclass(frozen=True)
class NormStats:
    """Per-column training mean/std used for normalization."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float


@dataclass(frozen=True)
class Dataset:
    """Normalized train/test split plus the statistics needed to undo it.

    ``f_test`` optionally carries noiseless test targets (normalized with the
    same training statistics) for diagnostics on synthetic data.
    """

    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    norm_stats: NormStats
    f_test: np.ndarray | None = None

    @property
    def n_train(self) -> int:
        return self.X_train.shape[0]

    @property
    def n_test(self) -> int:
        return self.X_test.shape[0]


def _normalize_dataset(X_train, y_train, X_test, y_test, f_test=None) -> Dataset:
    X_train = np.asarray(X_train, dtype=float)
    X_test = np.asarray(X_test, dtype=float)
    y_train = np.asarray(y_train, dtype=float).ravel()
    y_test = np.asarray(y_test, dtype=float).ravel()
    x_mean = X_train.mean(axis=0)
    x_std = X_train.std(axis=0)
    constant = np.where(x_std == 0.0)[0]
    if constant.size:
        warnings.warn(f"constant input column(s) {constant.tolist()}; std forced to 1")
        x_std = x_std.copy()
        x_std[constant] = 1.0
    y_mean = float(y_train.mean())
    y_std = float(y_train.std())
    if y_std == 0.0:
        warnings.warn("constant training targets; std forced to 1")
        y_std = 1.0
    stats = NormStats(x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std)
    return Dataset(
        X_train=(X_train - x_mean) / x_std,
        y_train=(y_train - y_mean) / y_std,
        X_test=(X_test - x_mean) / x_std,
        y_test=(y_test - y_mean) / y_std,
        norm_stats=stats,
        f_test=None if f_test is None else (np.asarray(f_test, dtype=float) - y_mean) / y_std,
    )


def toy_function(x: np.ndarray) -> np.ndarray:
    """Noiseless 1-D target: 5x^2 sin(12x) + (x^3 - 0.5) sin(3x - 0.5) + 4 cos(2x)."""
    x = np.asarray(x, dtype=float)
    return (5.0 * x ** 2 * np.sin(12.0 * x)
            + (x ** 3 - 0.5) * np.sin(3.0 * x - 0.5)
            + 4.0 * np.cos(2.0 * x))


def toy_generate(n: int, n_test: int, seed: int) -> Dataset:
    """Sample the synthetic benchmark: train x in [0, 1], test x in [-0.2, 1.2].

    Both train and test targets carry independent N(0, 0.25) noise; the
    noiseless test values are kept in ``f_test`` for diagnostics.
    """
    if n < 1 or n_test < 1:
        raise ValueError("n and n_test must be >= 1")
    rng = np.random.default_rng(seed)
    x_train = rng.uniform(*TOY_TRAIN_RANGE, size=(n, 1))
    y_train = toy_function(x_train[:, 0]) + rng.normal(0.0, TOY_NOISE_STD, size=n)
    x_test = rng.uniform(*TOY_TEST_RANGE, size=(n_test, 1))
    f_test = toy_function(x_test[:, 0])
    y_test = f_test + rng.normal(0.0, TOY_NOISE_STD, size=n_test)
    return _normalize_dataset(x_train, y_train, x_test, y_test, f_test=f_test)


def _parse_row(row: list[str], r: int) -> list[float]:
    parsed = []
    for c, cell in enumerate(row):
        try:
            value = float(cell)
        except ValueError:
            raise DataError(f"non-numeric cell at row {r}, column {c}: {cell!r}") from None
        # float() accepts "nan" and "inf", which would poison the normalization
        if not math.isfinite(value):
            raise DataError(f"non-finite cell at row {r}, column {c}: {cell!r}")
        parsed.append(value)
    return parsed


def _read_numeric_csv(path: str) -> tuple[list[str] | None, np.ndarray]:
    rows: list[list[float]] = []
    header: list[str] | None = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for r, row in enumerate(reader):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if header is None and not rows:
                try:  # a first non-blank row that does not parse as numbers is a header
                    [float(cell) for cell in row]
                except ValueError:
                    header = [cell.strip() for cell in row]
                    continue
            rows.append(_parse_row(row, r))
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: inconsistent column counts {sorted(widths)}")
    if header is not None and len(header) not in widths:
        raise DataError(f"{path}: the header has {len(header)} columns "
                        f"but the rows have {widths.pop()}")
    # a target named by a repeated name would be its first column, and the
    # others would stay inputs
    repeated = [name for c, name in enumerate(header or []) if name in header[:c]]
    if repeated:
        raise DataError(f"{path}: the header names the column {repeated[0]!r} more than once")
    return header, np.asarray(rows, dtype=float)


def load_csv(path: str, target_column: int | str, test_fraction: float,
             seed: int = 0) -> Dataset:
    """Load a delimited numeric table, split it, and normalize per protocol.

    A seeded random ``test_fraction`` of the rows, in (0, 1), is the test
    split. A non-numeric first non-blank line is treated as a header, in
    which case ``target_column`` may be a column name; a header must name as
    many columns as the rows have, each once.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    header, table = _read_numeric_csv(path)
    if isinstance(target_column, str):
        if header is None or target_column not in header:
            raise DataError(f"target column {target_column!r} not found in header")
        target_idx = header.index(target_column)
    else:
        target_idx = int(target_column)
        if not (-table.shape[1] <= target_idx < table.shape[1]):
            raise DataError(f"target column index {target_idx} out of range")
    y = table[:, target_idx]
    X = np.delete(table, target_idx % table.shape[1], axis=1)
    n = table.shape[0]
    n_test = min(max(1, int(round(n * test_fraction))), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    test_idx, train_idx = np.sort(perm[:n_test]), np.sort(perm[n_test:])
    return _normalize_dataset(X[train_idx], y[train_idx], X[test_idx], y[test_idx])


def denormalize_predictions(means: np.ndarray, variances: np.ndarray,
                            stats: NormStats) -> tuple[np.ndarray, np.ndarray]:
    """Map normalized predictive means/variances back to original target units."""
    return (np.asarray(means) * stats.y_std + stats.y_mean,
            np.asarray(variances) * stats.y_std ** 2)


def denormalize_inputs(X: np.ndarray, stats: NormStats) -> np.ndarray:
    """Map normalized inputs back to original units."""
    return np.asarray(X) * stats.x_std + stats.x_mean

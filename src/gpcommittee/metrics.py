"""Standardized accuracy metrics for predictive distributions.

SMSE normalizes squared error by the (population) variance of the test
targets, so the trivial mean predictor scores exactly 1. MSLL subtracts the
log loss of the trivial Gaussian built from training statistics, so negative
values mean better-than-trivial and the trivial model scores 0.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def smse(pred_means: np.ndarray, y_true: np.ndarray) -> float:
    """Mean squared error divided by the population variance of the targets;
    constant targets raise :class:`DataError`."""
    pred_means = np.asarray(pred_means, dtype=float).ravel()
    y_true = np.asarray(y_true, dtype=float).ravel()
    if pred_means.shape != y_true.shape or y_true.size < 2:
        raise ValueError("pred_means and y_true must share length >= 2")
    var = float(np.mean((y_true - np.mean(y_true)) ** 2))
    if var == 0.0:
        raise DataError("constant test targets make SMSE undefined")
    return float(np.mean((pred_means - y_true) ** 2)) / var


def _gaussian_log_loss(y, means, variances):
    return 0.5 * np.log(2.0 * np.pi * variances) + (y - means) ** 2 / (2.0 * variances)


def msll(pred_means: np.ndarray, pred_vars: np.ndarray, y_true: np.ndarray,
         train_mean: float, train_var: float) -> float:
    """Mean standardized log loss against the trivial N(train_mean, train_var)."""
    pred_means = np.asarray(pred_means, dtype=float).ravel()
    pred_vars = np.asarray(pred_vars, dtype=float).ravel()
    y_true = np.asarray(y_true, dtype=float).ravel()
    if not (pred_means.shape == pred_vars.shape == y_true.shape):
        raise ValueError("inputs must share a common length")
    if np.any(pred_vars <= 0.0):
        raise ValueError("predictive variances must be strictly positive")
    if train_var <= 0.0:
        raise ValueError("train_var must be strictly positive")
    model = _gaussian_log_loss(y_true, pred_means, pred_vars)
    trivial = _gaussian_log_loss(y_true, train_mean, train_var)
    return float(np.mean(model - trivial))

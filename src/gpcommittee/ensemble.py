"""Factorized committee training: M experts with shared hyperparameters.

The training objective is the sum of per-expert negative log marginal
likelihoods. Training steps (objective terms, final fits and GRBCM's
augmented experts) are loops over the experts in subset-index order on the
calling thread: their LAPACK calls go through scipy's f2py wrappers, which
hold the interpreter lock. Prediction deals the experts to the committee's
``workers`` threads (:func:`gp.fan_out`); every call in it releases the
lock, and every thread count gives the same bits. Both assume BLAS on one
thread: :func:`train` pins it there (:func:`gp.blas_threads`), and so does
the experiment harness around its predictions. GRBCM's augmented experts
are block extensions of the communication expert (:func:`gp.extend`), so
its factor is never recomputed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import gp
from .errors import DataError, MissingCommunicationSubset, NumericalBreakdown
from .kernel import Hyperparams
from .optimize import OptimizerConfig, minimize
from .partition import Partition


@dataclass(frozen=True)
class ExpertEnsemble:
    """Shared hyperparameters plus the fitted experts of one committee.

    ``augmented_experts`` holds the models on (communication subset +
    ordinary subset i), one per non-communication subset in ascending subset
    order, each stored as a block extension of the communication expert; it
    stays None until :func:`prepare_grbcm` runs. ``workers`` is the number of
    threads every per-expert prediction loop is dealt to (:func:`gp.fan_out`),
    here and in NPAE.
    """

    hp: Hyperparams
    partition: Partition
    experts: list[gp.GPModel]
    augmented_experts: list[gp.BlockExtension] | None
    train_time_seconds: float
    opt_evals: int = 0
    opt_trace: tuple[float, ...] = ()
    workers: int = 1

    @property
    def M(self) -> int:
        return len(self.experts)


def _for_expert(i: int, fn, *args):
    """``fn(*args)``, re-raising a breakdown that names expert ``i``."""
    try:
        return fn(*args)
    except NumericalBreakdown as exc:
        raise NumericalBreakdown(
            f"expert {i}: {exc}", jitters_tried=exc.jitters_tried, expert_index=i
        ) from exc


def factorized_nlml(X: np.ndarray, y: np.ndarray, partition: Partition,
                    hp: Hyperparams) -> tuple[float, np.ndarray]:
    """Sum of per-expert NLML values and gradients over the partition.

    Identical to the single-GP objective when M = 1. The partition is taken
    as validated (:func:`train` checks it once, not on every evaluation). A
    factorization failure is re-raised naming the offending expert index.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float).ravel()
    value = 0.0
    grad = np.zeros(hp.n_params)
    for i, idx in enumerate(partition.subsets):
        v, g = _for_expert(i, gp.nlml, X[idx], y[idx], hp)
        value += v
        grad += g
    return value, grad


def _fit_experts(X, y, partition, hp):
    return [_for_expert(i, gp.fit, X[idx], y[idx], hp)
            for i, idx in enumerate(partition.subsets)]


def train(X: np.ndarray, y: np.ndarray, partition: Partition,
          opt_config: OptimizerConfig, workers: int = 1) -> ExpertEnsemble:
    """Optimize shared hyperparameters on the factorized objective, then refit
    every expert (factor inverse + weight vector) at the optimum.

    ``X`` and ``y`` are checked once, before the first objective evaluation:
    a row count mismatch or a non-finite entry raises :class:`DataError`
    naming the first bad row, and the partition is validated against ``X``.
    ``workers`` (at least 1) is kept on the ensemble for its predictions.
    BLAS runs on one thread while training.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} targets")
    bad = ~(np.all(np.isfinite(X), axis=1) & np.isfinite(y))
    if bad.any():
        row = int(np.argmax(bad))
        raise DataError(f"training row {row} is not finite: x={X[row].tolist()}, y={y[row]}")
    partition.validate(X.shape[0])
    t0 = time.perf_counter()
    gp.retain_freed_memory()
    with gp.blas_threads(1):
        result = minimize(lambda hp: factorized_nlml(X, y, partition, hp), opt_config)
        experts = _fit_experts(X, y, partition, result.best_hp)
    elapsed = time.perf_counter() - t0
    return ExpertEnsemble(hp=result.best_hp, partition=partition, experts=experts,
                          augmented_experts=None, train_time_seconds=elapsed,
                          opt_evals=result.evals_used, opt_trace=tuple(result.trace),
                          workers=workers)


def prepare_grbcm(ensemble: ExpertEnsemble) -> ExpertEnsemble:
    """Build the M-1 augmented experts on (communication subset + subset i).

    Each is the GP on the communication expert's rows followed by expert i's
    rows, built by :func:`gp.extend` as a block extension of the
    communication expert: it keeps only the cross block ``B_i = K_ic L_c^-T``
    and the inverse Schur factor ``S_i^-1``. The communication block inherits
    the communication expert's jitter, and the jitter ladder runs on the Schur
    complement ``C_ii - B_i B_i'`` only; a breakdown there names expert i.
    Returns a new ensemble; the input is left untouched.
    """
    c = ensemble.partition.communication_index
    if c is None:
        raise MissingCommunicationSubset(
            "partition has no designated communication subset")
    comm = ensemble.experts[c]
    augmented = [_for_expert(i, gp.extend, comm, model.X, model.y)
                 for i, model in enumerate(ensemble.experts) if i != c]
    return replace(ensemble, augmented_experts=augmented)


def experts_predict(ensemble: ExpertEnsemble, Xstar: np.ndarray,
                    augmented: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per-expert predictive means and variances, stacked one row per expert.

    With ``augmented=True`` the rows are the GRBCM committee instead
    (requires :func:`prepare_grbcm` first): row 0 is the communication
    expert, exactly as :func:`gp.predict` gives it, and row ``i + 1`` the
    i-th augmented expert. The communication expert's terms ``L_c^-1 K_c*``
    and ``L_c^-1 y_c`` are formed once and each augmented expert adds its
    own block (see :func:`gp.predict_extended`). Either way the rows are
    dealt to ``ensemble.workers`` threads, and every thread count gives the
    same bits.
    """
    if augmented:
        if ensemble.augmented_experts is None:
            raise MissingCommunicationSubset("augmented experts not prepared")
        comm = ensemble.experts[ensemble.partition.communication_index]
        return gp.predict_extended(comm, ensemble.augmented_experts, Xstar,
                                   ensemble.workers)
    Xstar = np.asarray(Xstar, dtype=float)
    if Xstar.ndim == 1:
        Xstar = Xstar[:, None]
    means = np.empty((ensemble.M, Xstar.shape[0]))
    variances = np.empty_like(means)

    def predict_row(slot, i):
        means[i], variances[i] = gp.predict(ensemble.experts[i], Xstar)

    gp.fan_out(predict_row, ensemble.M, ensemble.workers)
    return means, variances

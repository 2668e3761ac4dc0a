"""Unconstrained minimization of (value, gradient) objectives over hyperparameters.

The minimizer is scipy's L-BFGS-B, run from a given start under a
function-evaluation budget counted on the objective itself. It stops when
the largest gradient entry falls below ``GRAD_TOLERANCE`` or the budget runs
out, and returns the best iterate seen.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .errors import InvalidStart, NumericalBreakdown
from .kernel import Hyperparams

Objective = Callable[[Hyperparams], tuple[float, np.ndarray]]

GRAD_TOLERANCE = 1e-6


class OptimizeResult(NamedTuple):
    best_hp: Hyperparams
    best_value: float
    evals_used: int
    trace: list[float]


class _BudgetExhausted(Exception):
    pass


class _Evaluator:
    """Budgeted objective wrapper.

    Caches every evaluated point so that a repeated request at the same
    coordinates costs no objective call, and tracks the best finite iterate
    seen. A non-finite value, or a :class:`NumericalBreakdown`, reaches
    L-BFGS-B as a finite stand-in with a zero gradient: the largest finite
    value seen so far plus its magnitude plus one. That lies above every
    value seen, so the line search shortens its step past the point as it
    would past any rise. Given +inf itself, L-BFGS-B returns to its last
    finite iterate and stops; NaN would send it on to ever larger steps
    until the budget ran out. Before any finite value the stand-in is +inf.
    """

    def __init__(self, objective: Objective, max_evals: int):
        self._objective = objective
        self.max_evals = max_evals
        self.evals = 0
        self._cache: dict[bytes, tuple[float, np.ndarray]] = {}
        self.best_x: np.ndarray | None = None
        self.best_value = np.inf
        self.worst_value = -np.inf

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self.evals >= self.max_evals:
            raise _BudgetExhausted
        self.evals += 1
        try:
            # extreme probes can overflow the kernel; the run then ends at
            # the last finite iterate instead of raising
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                value, grad = self._objective(Hyperparams.from_vector(x))
            value = float(value)
            grad = np.asarray(grad, dtype=float)
        except NumericalBreakdown:
            value, grad = np.inf, np.zeros_like(x)
        if np.isfinite(value) and np.all(np.isfinite(grad)):
            if value < self.best_value:
                self.best_value, self.best_x = value, x.copy()
            self.worst_value = max(self.worst_value, value)
        else:
            worst = self.worst_value
            value = worst + abs(worst) + 1.0 if np.isfinite(worst) else np.inf
            grad = np.zeros_like(x)
        self._cache[key] = (value, grad)
        return value, grad


def minimize(objective: Objective, start: Hyperparams, max_evals: int) -> OptimizeResult:
    """Minimize the objective from ``start`` in at most ``max_evals`` (>= 1)
    objective evaluations.

    The returned value never exceeds the objective at the start; the trace
    holds the accepted (non-increasing) iterate values. Raises
    :class:`InvalidStart` if the objective is non-finite at the start.

    The start is evaluated once, here. L-BFGS-B reads it back from the
    evaluator's cache, so it stops there by its own ``gtol`` test when the
    largest gradient entry is already below ``GRAD_TOLERANCE``; with the
    budget spent, its first new point raises ``_BudgetExhausted``, which
    ends the run.
    """
    if max_evals < 1:
        raise ValueError(f"max_evals must be >= 1, got {max_evals}")
    ev = _Evaluator(objective, max_evals)
    x0 = start.to_vector()
    f0, _ = ev(x0)
    if not np.isfinite(f0):
        raise InvalidStart("objective is non-finite at the initial hyperparameters")
    trace = [f0]

    def callback(xk):
        # an accepted iterate lowered the value, so it is never a stand-in
        cached = ev._cache.get(np.asarray(xk, dtype=float).tobytes())
        if cached is not None:
            trace.append(cached[0])

    try:
        _scipy_minimize(ev, x0, jac=True, method="L-BFGS-B", callback=callback,
                        options={"maxfun": ev.max_evals, "gtol": GRAD_TOLERANCE,
                                 "ftol": 0.0})
    except _BudgetExhausted:
        pass
    best_x = ev.best_x if ev.best_x is not None else x0
    return OptimizeResult(Hyperparams.from_vector(best_x), ev.best_value, ev.evals, trace)

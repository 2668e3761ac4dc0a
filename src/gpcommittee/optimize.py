"""Unconstrained minimization of (value, gradient) objectives over hyperparameters.

The default method is Polak-Ribiere nonlinear conjugate gradients with a
strong-Wolfe line search and periodic restarts; ``method="lbfgs"`` delegates
to scipy's L-BFGS-B instead. Both share a function-evaluation budget counted
on the objective itself, and both return the best iterate seen.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import minimize as _scipy_minimize
from scipy.optimize import line_search as _scipy_line_search

from .errors import InvalidStart, NumericalBreakdown
from .kernel import Hyperparams

Objective = Callable[[Hyperparams], tuple[float, np.ndarray]]


@dataclass(frozen=True)
class OptimizerConfig:
    max_evals: int = 500
    grad_tolerance: float = 1e-6
    initial_hp: Hyperparams = field(default_factory=lambda: Hyperparams.default(1))
    method: str = "cg"  # "cg" (Polak-Ribiere) or "lbfgs"

    def __post_init__(self):
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if self.grad_tolerance <= 0:
            raise ValueError("grad_tolerance must be > 0")
        if self.method not in ("cg", "lbfgs"):
            raise ValueError(f"unknown method {self.method!r}")


class OptimizeResult(NamedTuple):
    best_hp: Hyperparams
    best_value: float
    evals_used: int
    trace: list[float]


class _BudgetExhausted(Exception):
    pass


class _Evaluator:
    """Budgeted objective wrapper.

    Caches every evaluated point so that paired value/gradient requests at the
    same coordinates cost a single objective call, substitutes +inf for
    non-finite values (which makes any line search back off), and tracks the
    best finite iterate seen.
    """

    def __init__(self, objective: Objective, max_evals: int):
        self._objective = objective
        self.max_evals = max_evals
        self.evals = 0
        self._cache: dict[bytes, tuple[float, np.ndarray]] = {}
        self.best_x: np.ndarray | None = None
        self.best_value = np.inf

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
            # extreme probes can overflow the kernel; +inf makes any line
            # search back off rather than abort the run
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                value, grad = self._objective(Hyperparams.from_vector(x))
            value = float(value)
            grad = np.asarray(grad, dtype=float)
        except NumericalBreakdown:
            value, grad = np.inf, np.zeros_like(x)
        if not (np.isfinite(value) and np.all(np.isfinite(grad))):
            value, grad = np.inf, np.zeros_like(x)
        if value < self.best_value:
            self.best_value, self.best_x = value, x.copy()
        self._cache[key] = (value, grad)
        return value, grad

    def value(self, x: np.ndarray) -> float:
        return self(x)[0]

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self(x)[1]


def _line_search(ev: _Evaluator, x, d, fval, g, old_fval):
    """Strong-Wolfe step along d, falling back to Armijo backtracking."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        alpha = _scipy_line_search(ev.value, ev.grad, x, d, gfk=g, old_fval=fval,
                                   old_old_fval=old_fval, c1=1e-4, c2=0.4)[0]
    if alpha is not None and alpha > 0:
        return alpha
    slope = float(g @ d)
    if slope >= 0:
        return None
    alpha = 1.0
    for _ in range(30):
        if ev.value(x + alpha * d) <= fval + 1e-4 * alpha * slope:
            return alpha
        alpha *= 0.5
    return None


def _run_cg(ev: _Evaluator, x0, f0, g0, grad_tol):
    dim = x0.size
    x, fval, g = x0, f0, g0
    trace = [fval]
    d = -g
    old_fval = None
    since_restart = 0
    while np.linalg.norm(g, np.inf) >= grad_tol:
        try:
            alpha = _line_search(ev, x, d, fval, g, old_fval)
            if alpha is None:
                if since_restart == 0:
                    break  # steepest descent failed; nothing more to try
                d, since_restart = -g, 0
                continue
            x_new = x + alpha * d
            f_new, g_new = ev(x_new)
        except _BudgetExhausted:
            break
        if not f_new <= fval:
            break
        diff = g_new - g
        beta = max(0.0, float(g_new @ diff) / float(g @ g))
        since_restart += 1
        if since_restart >= dim + 2:
            beta, since_restart = 0.0, 0
        d = -g_new + beta * d
        if float(d @ g_new) >= 0:
            d, since_restart = -g_new, 0
        old_fval, x, fval, g = fval, x_new, f_new, g_new
        trace.append(fval)
    return trace


def _run_lbfgs(ev: _Evaluator, x0, f0, g0, grad_tol):
    trace = [f0]

    def callback(xk):
        cached = ev._cache.get(np.asarray(xk, dtype=float).tobytes())
        if cached is not None and np.isfinite(cached[0]):
            trace.append(cached[0])

    try:
        _scipy_minimize(lambda x: ev(x), x0, jac=True, method="L-BFGS-B",
                        callback=callback,
                        options={"maxfun": ev.max_evals, "gtol": grad_tol, "ftol": 0.0})
    except _BudgetExhausted:
        pass
    return trace


def minimize(objective: Objective, config: OptimizerConfig) -> OptimizeResult:
    """Minimize the objective from ``config.initial_hp`` under the eval budget.

    The returned value never exceeds the objective at the initial point; the
    trace holds the accepted (non-increasing) iterate values. Raises
    :class:`InvalidStart` if the objective is non-finite at the initial point.
    """
    ev = _Evaluator(objective, config.max_evals)
    x0 = config.initial_hp.to_vector()
    f0, g0 = ev(x0)
    if not np.isfinite(f0):
        raise InvalidStart("objective is non-finite at the initial hyperparameters")
    if np.linalg.norm(g0, np.inf) >= config.grad_tolerance and ev.evals < ev.max_evals:
        if config.method == "cg":
            trace = _run_cg(ev, x0, f0, g0, config.grad_tolerance)
        else:
            trace = _run_lbfgs(ev, x0, f0, g0, config.grad_tolerance)
    else:
        trace = [f0]
    best_x = ev.best_x if ev.best_x is not None else x0
    return OptimizeResult(Hyperparams.from_vector(best_x), ev.best_value, ev.evals, trace)

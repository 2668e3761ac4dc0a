"""Exact GP regression on a single data block.

Fitting factorizes the noisy kernel matrix once with an escalating jitter
ladder (LAPACK ``potrf``); the stored Cholesky factor backs all predictions,
so nothing is re-factorized per test point.

The marginal likelihood, evaluated once per expert per optimizer step, is
the hot path. Each evaluation builds the kernel matrix ``K`` once, adds the
noise to the diagonal of a copy to get ``C``, factors ``C = L L'`` with
``potrf``, inverts it from ``L`` with ``potri`` and hands the same ``K`` to
the kernel gradients. The gradient is contracted coordinate by coordinate
without forming ``C^-1 - a a'`` (see :func:`nlml`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import NumericalBreakdown
from .kernel import Hyperparams, kernel_matrix, kernel_matrix_grads

# Jitter ladder: 0, then 1e-10 * mean(diag), escalating by 10x up to 1e-2 * mean(diag).
_JITTER_START = 1e-10
_JITTER_STOP = 1e-2
_VARIANCE_GUARD = 1.0 - 1e-10


def chol_with_jitter(A: np.ndarray, expert_index: int | None = None,
                     test_index: int | None = None) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``A + jitter*I``, escalating jitter on failure.

    The factorization reads only the lower triangle of ``A``. Returns
    (L, jitter_used), where ``L`` is Fortran-ordered with exact zeros above
    the diagonal. Raises :class:`NumericalBreakdown` with the attempted
    ladder if the largest jitter still fails.
    """
    if not np.all(np.isfinite(A)):
        raise NumericalBreakdown("matrix contains non-finite entries",
                                 jitters_tried=[], expert_index=expert_index,
                                 test_index=test_index)
    scale = float(np.mean(np.diag(A)))
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    jitters = [0.0]
    j = _JITTER_START * scale
    while j <= _JITTER_STOP * scale * (1.0 + 1e-12):
        jitters.append(j)
        j *= 10.0
    for jitter in jitters:
        if jitter == 0.0:
            A_jit = A
        else:
            A_jit = np.array(A, dtype=float)
            A_jit.flat[:: A.shape[0] + 1] += jitter
        L, info = dpotrf(A_jit, lower=1, clean=1)
        if info == 0:
            return L, jitter
    raise NumericalBreakdown(
        f"Cholesky factorization failed after jitter ladder up to {jitters[-1]:.3e}",
        jitters_tried=jitters, expert_index=expert_index, test_index=test_index,
    )


@dataclass(frozen=True)
class GPModel:
    """One trained GP expert: data view, Cholesky factor and weight vector.

    ``chol @ chol.T`` reconstructs ``K + (noise_variance + jitter_used) * I``
    and ``weight_vector`` solves that system against ``y``.
    """

    X: np.ndarray
    y: np.ndarray
    hp: Hyperparams
    chol: np.ndarray
    weight_vector: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.X.shape[0]


def fit(X: np.ndarray, y: np.ndarray, hp: Hyperparams,
        expert_index: int | None = None) -> GPModel:
    """Fit an exact GP: factorize ``K + noise*I`` and precompute the weight vector."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] < 1:
        raise ValueError("need at least one training point")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y row counts differ")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("training data contains non-finite entries")
    C = kernel_matrix(X, X, hp)
    C.flat[:: X.shape[0] + 1] += hp.noise_variance
    L, jitter = chol_with_jitter(C, expert_index=expert_index)
    alpha = cho_solve((L, True), y)
    return GPModel(X=X, y=y, hp=hp, chol=L, weight_vector=alpha, jitter_used=jitter)


def nlml(X: np.ndarray, y: np.ndarray, hp: Hyperparams,
         expert_index: int | None = None) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood and its gradient w.r.t. all log coordinates.

    Value is ``0.5 * y' C^-1 y + sum(log diag L) + (n/2) log 2pi`` with
    ``C = K + noise*I = L L'``. The gradient is R&W (2006) eq. 5.9,
    ``0.5 * tr((C^-1 - a a') dC)`` with ``a = C^-1 y``, contracted per
    coordinate without forming ``C^-1 - a a'``:

    - kernel coordinate j: ``0.5 * (<C^-1, dK_j> - a' dK_j a)``, with
      ``<., .>`` the elementwise (Frobenius) inner product;
    - noise (``dC = 2 noise I``): ``noise * (tr C^-1 - a'a)``.

    ``K`` is built once and shared with :func:`kernel_matrix_grads`; ``C^-1``
    comes from ``L`` by LAPACK ``potri``. Coordinates are in the canonical
    order (output scale, lengthscales, noise).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    K = kernel_matrix(X, X, hp)
    C = K.copy()
    C.flat[:: n + 1] += hp.noise_variance
    L, _ = chol_with_jitter(C, expert_index=expert_index)
    alpha = cho_solve((L, True), y)
    value = (0.5 * float(y @ alpha)
             + float(np.sum(np.log(np.diag(L))))
             + 0.5 * n * np.log(2.0 * np.pi))

    Cinv, info = dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalBreakdown(f"potri failed to invert the Cholesky factor (info={info})",
                                 expert_index=expert_index)
    # potri fills the lower triangle of a Fortran-ordered array and leaves
    # L's zeros above it; the transpose is a C-ordered view, so the
    # symmetrized inverse flattens for np.vdot without a copy.
    Cinv = Cinv.T
    Cinv += Cinv.T
    Cinv.flat[:: n + 1] *= 0.5
    grads = np.empty(hp.n_params)
    for j, dK in enumerate(kernel_matrix_grads(X, hp, K)):
        grads[j] = 0.5 * (np.vdot(Cinv, dK) - alpha @ (dK @ alpha))
    # noise enters as 2*noise_variance*I on the noisy matrix
    grads[-1] = hp.noise_variance * (np.trace(Cinv) - alpha @ alpha)
    return value, grads


def predict(model: GPModel, Xstar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and noisy-observation variance at test inputs.

    Variances include observation noise, so each lies in
    ``(noise_variance, output_variance + noise_variance]`` up to jitter;
    round-off dips are clamped at ``noise_variance * (1 - 1e-10)``.
    """
    if not isinstance(model, GPModel):
        raise ValueError("predict requires a fitted GPModel")
    hp = model.hp
    Xstar = np.asarray(Xstar, dtype=float)
    if Xstar.ndim == 1:
        Xstar = Xstar[:, None]
    Kstar = kernel_matrix(model.X, Xstar, hp)
    means = Kstar.T @ model.weight_vector
    V = solve_triangular(model.chol, Kstar, lower=True)
    variances = hp.output_variance - np.sum(V * V, axis=0) + hp.noise_variance
    floor = hp.noise_variance * _VARIANCE_GUARD
    return means, np.maximum(variances, floor)

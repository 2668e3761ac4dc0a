"""Squared-exponential covariance, batched kernel matrices, and analytic gradients.

All hyperparameters live on a log scale so downstream optimization is
unconstrained while the underlying amplitudes, lengthscales and noise stay
strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist


@dataclass(frozen=True)
class Hyperparams:
    """Log-parameterized SE-kernel hyperparameters plus observation noise.

    ``output_variance = exp(2 * log_output_scale)``, per-dimension
    ``lengthscales = exp(log_lengthscales)`` and
    ``noise_variance = exp(2 * log_noise)``.
    """

    log_output_scale: float
    log_lengthscales: np.ndarray
    log_noise: float

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.log_lengthscales, dtype=float))
        if ls.ndim != 1:
            raise ValueError("log_lengthscales must be a 1-D vector")
        object.__setattr__(self, "log_lengthscales", ls)
        if not (np.isfinite(self.log_output_scale)
                and np.all(np.isfinite(ls))
                and np.isfinite(self.log_noise)):
            raise ValueError("hyperparameters must be finite")

    @property
    def input_dim(self) -> int:
        return self.log_lengthscales.shape[0]

    @property
    def output_variance(self) -> float:
        return float(np.exp(2.0 * self.log_output_scale))

    @property
    def lengthscales(self) -> np.ndarray:
        return np.exp(self.log_lengthscales)

    @property
    def noise_variance(self) -> float:
        return float(np.exp(2.0 * self.log_noise))

    @property
    def n_params(self) -> int:
        # canonical order: output scale, lengthscales, noise
        return 2 + self.input_dim

    def to_vector(self) -> np.ndarray:
        """Pack into the canonical coordinate order (output scale, lengthscales, noise)."""
        return np.concatenate(([self.log_output_scale], self.log_lengthscales, [self.log_noise]))

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "Hyperparams":
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size < 3:
            raise ValueError("hyperparameter vector must be 1-D with length >= 3")
        return cls(float(vec[0]), vec[1:-1].copy(), float(vec[-1]))

    @classmethod
    def default(cls, input_dim: int, log_noise: float = -1.0) -> "Hyperparams":
        """Order-one start for data normalized to zero mean / unit variance."""
        return cls(0.0, np.zeros(input_dim), log_noise)


def _check_dim(X: np.ndarray, hp: Hyperparams, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got ndim={X.ndim}")
    if X.shape[1] != hp.input_dim:
        raise ValueError(
            f"{name} has {X.shape[1]} columns but hyperparameters expect {hp.input_dim}"
        )
    return X


def se_kernel(x: np.ndarray, x_prime: np.ndarray, hp: Hyperparams) -> float:
    """Squared-exponential covariance between two points.

    ``k(x, x') = output_variance * exp(-0.5 * sum_i (x_i - x'_i)^2 / l_i^2)``
    """
    x = np.asarray(x, dtype=float).ravel()
    x_prime = np.asarray(x_prime, dtype=float).ravel()
    if x.shape[0] != hp.input_dim or x_prime.shape[0] != hp.input_dim:
        raise ValueError("input vectors must match the hyperparameter dimension")
    z = (x - x_prime) / hp.lengthscales
    return hp.output_variance * float(np.exp(-0.5 * np.dot(z, z)))


def kernel_matrix(X: np.ndarray, X_prime: np.ndarray, hp: Hyperparams) -> np.ndarray:
    """Covariance matrix between two point sets; entry (i, j) = k(X[i], X'[j])."""
    X = _check_dim(X, hp, "X")
    X_prime = _check_dim(X_prime, hp, "X_prime")
    ls = hp.lengthscales
    K = cdist(X / ls, X_prime / ls, metric="sqeuclidean")
    K *= -0.5
    np.exp(K, out=K)
    K *= hp.output_variance
    return K


def kernel_matrix_grads(X: np.ndarray, hp: Hyperparams,
                        K: np.ndarray | None = None) -> list[np.ndarray]:
    """Analytic derivatives of ``kernel_matrix(X, X, hp)`` w.r.t. each log coordinate.

    Returns one n x n matrix per kernel hyperparameter, ordered as in
    :meth:`Hyperparams.to_vector` but without the noise coordinate (the noise
    derivative acts on the noisy matrix and is handled by the GP core):

    - d K / d log_output_scale = 2 K
    - d K / d log_lengthscales[i] = K * D_i / l_i^2, with D_i the matrix of
      squared coordinate-i differences.

    ``K`` is ``kernel_matrix(X, X, hp)`` when the caller already holds it; it
    is computed here only when omitted, and it is never modified.
    """
    X = _check_dim(X, hp, "X")
    if X.shape[0] == 0:
        raise ValueError("X must be nonempty")
    if K is None:
        K = kernel_matrix(X, X, hp)
    grads = [2.0 * K]
    for z in (X / hp.lengthscales).T:
        dK = z[:, None] - z[None, :]
        dK *= dK
        dK *= K
        grads.append(dK)
    return grads

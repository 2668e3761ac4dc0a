"""Squared-exponential covariance matrices, the kernel part of the
marginal-likelihood gradient, and the one conversion of inputs to rows.

The GP core and the partitions take every input array through
:func:`as_rows`.

All hyperparameters live on a log scale so downstream optimization is
unconstrained while the underlying amplitudes, lengthscales and noise stay
strictly positive.

The gradient is returned already contracted against ``C^-1 - a a'``
(:func:`kernel_matrix_grads`): every SE derivative matrix is ``K`` times a
squared difference, so ``K * C^-1`` times ``[1, Z]`` gives all ``1 + d``
entries and no derivative matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

# starting log noise std: noise variance exp(-2), about 0.14 of unit-variance targets
_DEFAULT_LOG_NOISE = -1.0


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
    def prior_variance(self) -> float:
        """Predictive variance with no data: output variance plus noise variance."""
        return self.output_variance + self.noise_variance

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
    def default(cls, input_dim: int) -> "Hyperparams":
        """Order-one start for data normalized to zero mean / unit variance."""
        return cls(0.0, np.zeros(input_dim), _DEFAULT_LOG_NOISE)


def as_rows(X: np.ndarray) -> np.ndarray:
    """``X`` as a float array with one point per row; a 1-D array becomes a
    column of 1-D points."""
    X = np.asarray(X, dtype=float)
    return X[:, None] if X.ndim == 1 else X


def _check_dim(X: np.ndarray, hp: Hyperparams, name: str) -> np.ndarray:
    X = as_rows(X)
    if X.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got ndim={X.ndim}")
    if X.shape[1] != hp.input_dim:
        raise ValueError(
            f"{name} has {X.shape[1]} columns but hyperparameters expect {hp.input_dim}"
        )
    return X


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


def kernel_matrix_grads(X: np.ndarray, hp: Hyperparams, K: np.ndarray,
                        Cinv: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Kernel part of the NLML gradient, ``0.5 * <Cinv - alpha alpha', dK_j>`` per coordinate.

    ``K`` is ``kernel_matrix(X, X, hp)``, ``Cinv`` a symmetric ``n x n`` array
    (the inverse noisy matrix in :func:`gp.nlml`) and ``alpha`` an ``n``-vector;
    ``<., .>`` is the elementwise (Frobenius) inner product and ``dK_j`` the
    derivative of ``K`` w.r.t. kernel log coordinate ``j``. Returns the
    ``1 + d`` values ordered as in :meth:`Hyperparams.to_vector` without the
    noise coordinate (the noise derivative acts on the noisy matrix and is
    handled by the GP core).

    With ``z = X / lengthscales``, ``dK / d log_output_scale = 2 K`` and
    ``dK / d log_lengthscales[j] = K * D_j``, where ``D_j`` holds the squared
    differences ``(z_ij - z_kj)^2``. No ``D_j`` is formed: with
    ``H = K * (Cinv - alpha alpha')`` and ``P = [1, Z]``,

    - ``H P = (K * Cinv) P - alpha * (K (alpha * P))``, two products;
    - the output-scale entry is ``sum(H 1)``;
    - lengthscale ``j`` is ``sum_i z_ij^2 (H 1)_i - sum_i z_ij (H Z)_ij``.

    ``Z`` is ``z`` centred per column; ``D_j`` does not change under the
    shift, and without it the expanded square cancels badly on inputs far
    from the origin.

    ``Cinv`` is overwritten with ``K * Cinv``; ``K`` is never modified.
    """
    X = _check_dim(X, hp, "X")
    if X.shape[0] == 0:
        raise ValueError("X must be nonempty")
    P = np.empty((X.shape[0], 1 + hp.input_dim))
    P[:, 0] = 1.0
    Z = P[:, 1:]
    np.divide(X, hp.lengthscales, out=Z)
    Z -= Z.mean(axis=0)
    Cinv *= K
    HP = Cinv @ P
    HP -= alpha[:, None] * (K @ (alpha[:, None] * P))
    H1 = HP[:, 0]
    grads = np.empty(1 + hp.input_dim)
    grads[0] = H1.sum()
    grads[1:] = H1 @ (Z * Z) - np.einsum("ij,ij->j", Z, HP[:, 1:])
    return grads

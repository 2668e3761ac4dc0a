"""Aggregation rules that fuse per-expert predictive distributions.

All rules operate in precision (inverse variance) space. PoE and GPoE
multiply expert densities; BCM and RBCM additionally divide out prior
density so far-from-data predictions recover the prior; NPAE solves one
cross-covariance system per test point; GRBCM corrects augmented experts
with a communication expert instead of the prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import cho_solve

from .ensemble import ExpertEnsemble, experts_predict, _map_in_order
from .errors import MissingCommunicationSubset
from .gp import chol_with_jitter, predict, _VARIANCE_GUARD
from .kernel import Hyperparams, kernel_matrix

# precision floor for the BCM-family correction: degeneracy is signalled by
# the counter, not by a crash
_PRECISION_FLOOR_RATIO = 1e-12


class AggregationMethod(str, Enum):
    POE = "poe"
    GPOE_UNIFORM = "gpoe_uniform"
    GPOE_ENTROPY = "gpoe_entropy"
    BCM = "bcm"
    RBCM = "rbcm"
    NPAE = "npae"
    GRBCM = "grbcm"


@dataclass(frozen=True)
class PriorVariance:
    """Predictive variance with no data: output variance plus noise variance."""

    value: float

    def __post_init__(self):
        if not (self.value > 0.0 and np.isfinite(self.value)):
            raise ValueError("prior variance must be finite and > 0")

    @classmethod
    def from_hyperparams(cls, hp: Hyperparams) -> "PriorVariance":
        return cls(hp.output_variance + hp.noise_variance)


@dataclass(frozen=True)
class AggregatedPrediction:
    """Fused per-test-point mean and variance from one aggregation rule.

    ``betas`` (when the rule uses weights) has one row per voting expert;
    ``degeneracy_count`` counts test points where the precision floor fired.
    """

    means: np.ndarray
    variances: np.ndarray
    method: AggregationMethod
    betas: np.ndarray | None = None
    degeneracy_count: int = 0

    def __post_init__(self):
        if not (np.all(np.isfinite(self.variances)) and np.all(self.variances > 0)):
            raise ValueError("aggregated variances must be finite and strictly positive")


def _prior_value(prior_var) -> float:
    return prior_var.value if isinstance(prior_var, PriorVariance) else float(prior_var)


def _as_expert_matrices(means, variances):
    means = np.atleast_2d(np.asarray(means, dtype=float))
    variances = np.atleast_2d(np.asarray(variances, dtype=float))
    if means.shape != variances.shape:
        raise ValueError("means and variances must share shape (M, n_test)")
    if np.any(variances <= 0):
        raise ValueError("expert variances must be strictly positive")
    return means, variances


def beta_entropy(prior_var, expert_var: float) -> float:
    """Differential-entropy gap between prior and expert predictive density.

    ``0.5 * (log prior_var - log expert_var)``, clamped below at 0 so a
    numerically overshooting expert simply loses its vote.
    """
    pv = _prior_value(prior_var)
    if np.any(np.asarray(expert_var) <= 0):
        raise ValueError("expert_var must be > 0")
    return np.maximum(0.0, 0.5 * (np.log(pv) - np.log(expert_var)))


def poe(means, variances) -> AggregatedPrediction:
    """Product of experts with unit weights: precisions simply add."""
    means, variances = _as_expert_matrices(means, variances)
    precision = np.sum(1.0 / variances, axis=0)
    var = 1.0 / precision
    mean = var * np.sum(means / variances, axis=0)
    return AggregatedPrediction(mean, var, AggregationMethod.POE)


def gpoe(means, variances, prior_var, mode: str = "uniform") -> AggregatedPrediction:
    """Generalized product of experts.

    ``uniform`` uses weights 1/M: the mean equals the PoE mean and the
    variance is exactly M times the PoE variance. ``entropy`` weighs each
    expert by :func:`beta_entropy`; where every weight vanishes the precision
    is floored at the prior precision (the blow-up stays visible in betas).
    """
    means, variances = _as_expert_matrices(means, variances)
    M = means.shape[0]
    pv = _prior_value(prior_var)
    if mode == "uniform":
        base = poe(means, variances)
        return AggregatedPrediction(base.means, M * base.variances,
                                    AggregationMethod.GPOE_UNIFORM)
    if mode != "entropy":
        raise ValueError(f"unknown gpoe mode {mode!r}")
    betas = beta_entropy(pv, variances)
    precision = np.sum(betas / variances, axis=0)
    floored = precision < 1.0 / pv
    precision = np.maximum(precision, 1.0 / pv)
    var = 1.0 / precision
    mean = var * np.sum(betas * means / variances, axis=0)
    return AggregatedPrediction(mean, var, AggregationMethod.GPOE_ENTROPY,
                                betas=betas, degeneracy_count=int(np.sum(floored)))


def _bcm_style(weighted_precision, weighted_mean_sum, beta_sum, prior_precision, method, betas):
    precision = weighted_precision + (1.0 - beta_sum) * prior_precision
    floor = _PRECISION_FLOOR_RATIO * prior_precision
    floored = precision < floor
    precision = np.maximum(precision, floor)
    var = 1.0 / precision
    mean = var * weighted_mean_sum
    return AggregatedPrediction(mean, var, method, betas=betas,
                                degeneracy_count=int(np.sum(floored)))


def bcm(means, variances, prior_var) -> AggregatedPrediction:
    """Bayesian committee machine: unit weights plus a prior correction term."""
    means, variances = _as_expert_matrices(means, variances)
    M = means.shape[0]
    prior_precision = 1.0 / _prior_value(prior_var)
    return _bcm_style(np.sum(1.0 / variances, axis=0),
                      np.sum(means / variances, axis=0),
                      float(M), prior_precision, AggregationMethod.BCM, None)


def rbcm(means, variances, prior_var) -> AggregatedPrediction:
    """Robust BCM: entropy weights on experts, prior fills the leftover mass."""
    means, variances = _as_expert_matrices(means, variances)
    pv = _prior_value(prior_var)
    betas = beta_entropy(pv, variances)
    return _bcm_style(np.sum(betas / variances, axis=0),
                      np.sum(betas * means / variances, axis=0),
                      np.sum(betas, axis=0), 1.0 / pv,
                      AggregationMethod.RBCM, betas)


def npae(ensemble: ExpertEnsemble, Xstar: np.ndarray, workers: int = 1) -> AggregatedPrediction:
    """Nested pointwise aggregation: treat expert means as correlated random
    variables and regress the target on them.

    Per test point this builds the M x M covariance of the expert means (the
    diagonal equals the cross-covariance with the target) and solves it with
    the escalating-jitter Cholesky; cost grows with the square of the total
    training size.
    """
    hp = ensemble.hp
    Xstar = np.asarray(Xstar, dtype=float)
    if Xstar.ndim == 1:
        Xstar = Xstar[:, None]
    experts = ensemble.experts
    M = len(experts)
    n_test = Xstar.shape[0]

    def blocks(model):
        Ks = kernel_matrix(model.X, Xstar, hp)
        U = cho_solve((model.chol, True), Ks)
        return Ks, U, Ks.T @ model.weight_vector

    per_expert = _map_in_order(blocks, experts, workers)
    k_cross = np.empty((M, n_test))   # cov[mu_i, y*]
    mu = np.empty((M, n_test))
    for i, (Ks, U, mean_i) in enumerate(per_expert):
        k_cross[i] = np.sum(Ks * U, axis=0)
        mu[i] = mean_i
    K_agg = np.empty((M, M, n_test))  # cov[mu_i, mu_j]
    for i in range(M):
        K_agg[i, i] = k_cross[i]
        U_i = per_expert[i][1]
        for j in range(i + 1, M):
            K_ij = kernel_matrix(experts[i].X, experts[j].X, hp)
            w = np.sum(U_i * (K_ij @ per_expert[j][1]), axis=0)
            K_agg[i, j] = w
            K_agg[j, i] = w

    prior = hp.output_variance + hp.noise_variance
    means = np.empty(n_test)
    variances = np.empty(n_test)
    for t in range(n_test):
        L, _ = chol_with_jitter(K_agg[:, :, t], test_index=t)
        w = cho_solve((L, True), k_cross[:, t])
        means[t] = float(w @ mu[:, t])
        variances[t] = prior - float(k_cross[:, t] @ w)
    floor = hp.noise_variance * _VARIANCE_GUARD
    return AggregatedPrediction(means, np.maximum(variances, floor),
                                AggregationMethod.NPAE)


def grbcm_fuse(mu_c, var_c, mu_aug, var_aug, prior_precision: float):
    """Pointwise GRBCM fusion on raw expert statistics.

    Row 0 of the augmented statistics keeps weight 1; later rows get the
    entropy gap between the communication and augmented densities, clamped at
    0. The combined precision subtracts the communication precision weighted
    by the surplus weight mass, and is floored (counted) on underflow.
    """
    mu_c = np.asarray(mu_c, dtype=float).ravel()
    var_c = np.asarray(var_c, dtype=float).ravel()
    mu_aug, var_aug = _as_expert_matrices(mu_aug, var_aug)
    if np.any(var_c <= 0):
        raise ValueError("communication variances must be strictly positive")
    betas = np.ones_like(mu_aug)
    if mu_aug.shape[0] > 1:
        betas[1:] = np.maximum(0.0, 0.5 * (np.log(var_c)[None, :] - np.log(var_aug[1:])))
    beta_sum = np.sum(betas, axis=0)
    precision = np.sum(betas / var_aug, axis=0) - (beta_sum - 1.0) / var_c
    floor = _PRECISION_FLOOR_RATIO * prior_precision
    floored = precision < floor
    precision = np.maximum(precision, floor)
    var = 1.0 / precision
    mean = var * (np.sum(betas * mu_aug / var_aug, axis=0)
                  - (beta_sum - 1.0) * mu_c / var_c)
    return mean, var, betas, int(np.sum(floored))


def grbcm(ensemble: ExpertEnsemble, Xstar: np.ndarray, workers: int = 1) -> AggregatedPrediction:
    """Committee correction against a communication expert.

    The first augmented expert keeps weight 1 (its density is exact given the
    communication subset); the rest are weighted by the entropy gap between
    the communication expert and their augmented predictions. The correction
    term divides out the communication density rather than the prior.
    """
    part = ensemble.partition
    if part.communication_index is None or ensemble.augmented_experts is None:
        raise MissingCommunicationSubset(
            "grbcm needs a communication subset and prepared augmented experts")
    mu_c, var_c = predict(ensemble.experts[part.communication_index], Xstar)
    mu_aug, var_aug = experts_predict(ensemble, Xstar, workers=workers, augmented=True)
    prior_precision = 1.0 / (ensemble.hp.output_variance + ensemble.hp.noise_variance)
    mean, var, betas, floored = grbcm_fuse(mu_c, var_c, mu_aug, var_aug, prior_precision)
    return AggregatedPrediction(mean, var, AggregationMethod.GRBCM, betas=betas,
                                degeneracy_count=floored)

"""Aggregation rules that fuse per-expert predictive distributions.

PoE, GPoE, BCM, RBCM and GRBCM are one closed-form formula in precision
(inverse variance) space, the weighted form of Deisenroth & Ng (2015): the
fused precision is ``sum_i beta_i / var_i + (1 - sum_i beta_i) / var_b``.
PoE and GPoE take no base density ``b``; BCM and RBCM take the prior, so
far-from-data predictions recover it; GRBCM takes the communication expert
and fuses the augmented experts. The rules differ only in their weights and
in their precision floor. NPAE instead solves one cross-covariance system
per test point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import cho_solve

from .ensemble import ExpertEnsemble, experts_predict
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


def _as_expert_matrices(means, variances):
    means = np.atleast_2d(np.asarray(means, dtype=float))
    variances = np.atleast_2d(np.asarray(variances, dtype=float))
    if means.shape != variances.shape:
        raise ValueError("means and variances must share shape (M, n_test)")
    if np.any(variances <= 0):
        raise ValueError("expert variances must be strictly positive")
    return means, variances


def _entropy_gap(base_var, expert_var):
    return np.maximum(0.0, 0.5 * (np.log(base_var) - np.log(expert_var)))


def _fuse(means, variances, betas, floor, base=None):
    """The one closed-form fusion: weighted precisions add.

    Precision is ``sum_i beta_i / var_i``, plus ``(1 - sum_i beta_i) / var_b``
    when a base density ``(mean_b, var_b)`` is given; the precision-weighted
    mean sum is formed the same way. ``betas=None`` means unit weights. The
    precision is floored at ``floor``. Returns (mean, var, floored count).
    """
    if betas is None:
        precision = np.sum(1.0 / variances, axis=0)
        weighted = np.sum(means / variances, axis=0)
    else:
        precision = np.sum(betas / variances, axis=0)
        weighted = np.sum(betas * means / variances, axis=0)
    if base is not None:
        base_mean, base_var = base
        leftover = 1.0 - (means.shape[0] if betas is None else np.sum(betas, axis=0))
        precision = precision + leftover / base_var
        weighted = weighted + leftover * base_mean / base_var
    floored = precision < floor
    var = 1.0 / np.maximum(precision, floor)
    return var * weighted, var, int(np.sum(floored))


def beta_entropy(prior_var: PriorVariance, expert_var) -> float:
    """Differential-entropy gap between prior and expert predictive density.

    ``0.5 * (log prior_var - log expert_var)``, clamped below at 0 so a
    numerically overshooting expert simply loses its vote.
    """
    if np.any(np.asarray(expert_var) <= 0):
        raise ValueError("expert_var must be > 0")
    return _entropy_gap(prior_var.value, expert_var)


def poe(means, variances) -> AggregatedPrediction:
    """Product of experts with unit weights: precisions simply add."""
    means, variances = _as_expert_matrices(means, variances)
    # a sum of positive precisions never reaches a floor of 0
    mean, var, _ = _fuse(means, variances, None, floor=0.0)
    return AggregatedPrediction(mean, var, AggregationMethod.POE)


def gpoe(means, variances, prior_var: PriorVariance,
         mode: str = "uniform") -> AggregatedPrediction:
    """Generalized product of experts.

    ``uniform`` uses weights 1/M: the mean equals the PoE mean and the
    variance is exactly M times the PoE variance. ``entropy`` weighs each
    expert by :func:`beta_entropy`; where every weight vanishes the precision
    is floored at the prior precision (the blow-up stays visible in betas).
    """
    means, variances = _as_expert_matrices(means, variances)
    if mode == "uniform":
        base = poe(means, variances)
        return AggregatedPrediction(base.means, means.shape[0] * base.variances,
                                    AggregationMethod.GPOE_UNIFORM)
    if mode != "entropy":
        raise ValueError(f"unknown gpoe mode {mode!r}")
    betas = beta_entropy(prior_var, variances)
    mean, var, floored = _fuse(means, variances, betas, floor=1.0 / prior_var.value)
    return AggregatedPrediction(mean, var, AggregationMethod.GPOE_ENTROPY,
                                betas=betas, degeneracy_count=floored)


def bcm(means, variances, prior_var: PriorVariance) -> AggregatedPrediction:
    """Bayesian committee machine: unit weights plus a prior correction term."""
    means, variances = _as_expert_matrices(means, variances)
    pv = prior_var.value
    mean, var, floored = _fuse(means, variances, None,
                               floor=_PRECISION_FLOOR_RATIO * (1.0 / pv), base=(0.0, pv))
    return AggregatedPrediction(mean, var, AggregationMethod.BCM,
                                degeneracy_count=floored)


def rbcm(means, variances, prior_var: PriorVariance) -> AggregatedPrediction:
    """Robust BCM: entropy weights on experts, prior fills the leftover mass."""
    means, variances = _as_expert_matrices(means, variances)
    pv = prior_var.value
    betas = beta_entropy(prior_var, variances)
    mean, var, floored = _fuse(means, variances, betas,
                               floor=_PRECISION_FLOOR_RATIO * (1.0 / pv), base=(0.0, pv))
    return AggregatedPrediction(mean, var, AggregationMethod.RBCM, betas=betas,
                                degeneracy_count=floored)


def npae(ensemble: ExpertEnsemble, Xstar: np.ndarray) -> AggregatedPrediction:
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
    k_cross = np.empty((M, n_test))   # cov[mu_i, y*]
    mu = np.empty((M, n_test))
    U = []                            # C_i^-1 K_i* = L_i^-T V_i
    for i, model in enumerate(experts):
        Ks = kernel_matrix(model.X, Xstar, hp)
        V = model.chol_inv @ Ks
        U.append(model.chol_inv.T @ V)
        k_cross[i] = np.sum(V * V, axis=0)
        mu[i] = Ks.T @ model.weight_vector
    K_agg = np.empty((M, M, n_test))  # cov[mu_i, mu_j]
    for i in range(M):
        K_agg[i, i] = k_cross[i]
        for j in range(i + 1, M):
            K_ij = kernel_matrix(experts[i].X, experts[j].X, hp)
            w = np.sum(U[i] * (K_ij @ U[j]), axis=0)
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
    0. The communication density is the base of the fusion, so its precision
    is subtracted with the surplus weight mass; the fused precision is floored
    (counted) on underflow.
    """
    mu_c = np.asarray(mu_c, dtype=float).ravel()
    var_c = np.asarray(var_c, dtype=float).ravel()
    mu_aug, var_aug = _as_expert_matrices(mu_aug, var_aug)
    if np.any(var_c <= 0):
        raise ValueError("communication variances must be strictly positive")
    betas = np.ones_like(mu_aug)
    betas[1:] = _entropy_gap(var_c[None, :], var_aug[1:])
    mean, var, floored = _fuse(mu_aug, var_aug, betas,
                               floor=_PRECISION_FLOOR_RATIO * prior_precision,
                               base=(mu_c, var_c))
    return mean, var, betas, floored


def grbcm(ensemble: ExpertEnsemble, Xstar: np.ndarray) -> AggregatedPrediction:
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
    mu_aug, var_aug = experts_predict(ensemble, Xstar, augmented=True)
    prior_precision = 1.0 / (ensemble.hp.output_variance + ensemble.hp.noise_variance)
    mean, var, betas, floored = grbcm_fuse(mu_c, var_c, mu_aug, var_aug, prior_precision)
    return AggregatedPrediction(mean, var, AggregationMethod.GRBCM, betas=betas,
                                degeneracy_count=floored)

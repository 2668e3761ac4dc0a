"""Aggregation rules that fuse per-expert predictive distributions.

PoE, GPoE, BCM, RBCM and GRBCM are one closed-form formula in precision
(inverse variance) space, the weighted form of Deisenroth & Ng (2015): the
fused precision is ``sum_i beta_i / var_i + (1 - sum_i beta_i) / var_b``.
PoE and GPoE take no base density ``b``; BCM and RBCM take the prior, so
far-from-data predictions recover it. GRBCM fuses one committee of M
densities, stacked like every other rule's: row 0 is the communication
expert, the base of its fusion, and rows 1 onward are the augmented experts
built on it. The rules differ only in their weights and in their precision
floor.

NPAE instead regresses the target on the M expert means, one M x M system
per test point. Both of its per-expert loops, the M expert terms and the
M (M - 1) / 2 expert-pair products that fill those systems, are dealt
round-robin to the committee's ``workers`` threads (:func:`gp.fan_out`);
every call in them releases the interpreter lock, and they assume BLAS
itself runs on one thread. The result does not depend on the thread count.
All points are solved as one batch on the calling thread: one stacked
Cholesky factorization and one stacked solve against the factors. Only if
the batch cannot be factored does each point get the escalating-jitter
ladder of :func:`gp.chol_with_jitter`, and the solve stays the batched one.
The other rules read their expert rows from :func:`experts_predict`, which
deals the experts to the same threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# unused here; the benchmark's traced run patches this name in this module
from scipy.linalg import cho_solve  # noqa: F401

from .ensemble import ExpertEnsemble, experts_predict
from .errors import NumericalBreakdown
from .gp import (_VARIANCE_GUARD, _mean_and_whitened, chol_with_jitter, fan_out,
                 triangular_product)
# unused here; the benchmark's traced run patches this name in this module
from .gp import predict  # noqa: F401
from .kernel import Hyperparams, kernel_matrix

# precision floor for the BCM-family correction: degeneracy is signalled by
# the counter, not by a crash
_PRECISION_FLOOR_RATIO = 1e-12


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
    betas: np.ndarray | None = None
    degeneracy_count: int = 0

    def __post_init__(self):
        if not (np.all(np.isfinite(self.variances)) and np.all(self.variances > 0)):
            raise NumericalBreakdown("aggregated variances must be finite and strictly positive")


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
    mean sum is formed the same way. The precision is floored at ``floor``.
    Returns (mean, var, floored count).
    """
    precision = np.sum(betas / variances, axis=0)
    weighted = np.sum(betas * means / variances, axis=0)
    if base is not None:
        base_mean, base_var = base
        leftover = 1.0 - np.sum(betas, axis=0)
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
    mean, var, _ = _fuse(means, variances, np.ones_like(means), floor=0.0)
    return AggregatedPrediction(mean, var)


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
        return AggregatedPrediction(base.means, means.shape[0] * base.variances)
    if mode != "entropy":
        raise ValueError(f"unknown gpoe mode {mode!r}")
    betas = beta_entropy(prior_var, variances)
    mean, var, floored = _fuse(means, variances, betas, floor=1.0 / prior_var.value)
    return AggregatedPrediction(mean, var, betas=betas, degeneracy_count=floored)


def bcm(means, variances, prior_var: PriorVariance) -> AggregatedPrediction:
    """Bayesian committee machine: unit weights plus a prior correction term."""
    means, variances = _as_expert_matrices(means, variances)
    pv = prior_var.value
    mean, var, floored = _fuse(means, variances, np.ones_like(means),
                               floor=_PRECISION_FLOOR_RATIO * (1.0 / pv), base=(0.0, pv))
    return AggregatedPrediction(mean, var, degeneracy_count=floored)


def rbcm(means, variances, prior_var: PriorVariance) -> AggregatedPrediction:
    """Robust BCM: entropy weights on experts, prior fills the leftover mass."""
    means, variances = _as_expert_matrices(means, variances)
    pv = prior_var.value
    betas = beta_entropy(prior_var, variances)
    mean, var, floored = _fuse(means, variances, betas,
                               floor=_PRECISION_FLOOR_RATIO * (1.0 / pv), base=(0.0, pv))
    return AggregatedPrediction(mean, var, betas=betas, degeneracy_count=floored)


def npae(ensemble: ExpertEnsemble, Xstar: np.ndarray) -> AggregatedPrediction:
    """Nested pointwise aggregation: treat expert means as correlated random
    variables and regress the target on them.

    Per test point, the M x M covariance ``K_A`` of the expert means (its
    diagonal equals the cross-covariance ``k`` with the target) is factored
    as ``K_A = L L'``; with ``z_k = L^-1 k`` and ``z_mu = L^-1 mu`` the mean is
    ``z_k . z_mu`` and the variance the prior minus ``|z_k|^2``, floored as in
    :func:`gp.predict`. Every point is factored in one stacked Cholesky call
    and solved in one stacked call. If the stack holds a non-finite entry or
    any point fails to factor, each point's factor comes from
    :func:`gp.chol_with_jitter` instead, so the jitter it needs, or the
    :class:`NumericalBreakdown` naming the first failing test point, is that
    of a per-point solve. Building ``K_A`` costs one product per expert pair,
    so time grows with the square of the total training size.

    The expert terms and then the pair products are dealt round-robin to
    ``ensemble.workers`` threads by :func:`gp.fan_out` while the calling
    thread waits; each thread forms its pair products in one buffer of its
    own, and each term or pair writes only its own entries, so every thread
    count gives the same bits. The threads assume BLAS runs on one thread;
    with a multi-threaded BLAS they compete for the same cores. An exception
    in any thread is raised here once every thread has stopped.
    """
    hp = ensemble.hp
    Xstar = np.asarray(Xstar, dtype=float)
    if Xstar.ndim == 1:
        Xstar = Xstar[:, None]
    experts = ensemble.experts
    workers = ensemble.workers
    M = len(experts)
    n_test = Xstar.shape[0]
    rhs = np.empty((n_test, M, 2))    # [cov[mu_i, y*], mu_i] per test point
    U = [None] * M                    # C_i^-1 K_i* = L_i^-T V_i

    def expert_terms(slot, i):
        rhs[:, i, 1], V = _mean_and_whitened(experts[i], Xstar)
        rhs[:, i, 0] = np.einsum("ij,ij->j", V, V)
        U[i] = triangular_product(experts[i].chol_inv, V, transpose=True)

    fan_out(expert_terms, M, workers)
    K_agg = np.empty((n_test, M, M))  # cov[mu_i, mu_j] per test point
    for i in range(M):
        K_agg[:, i, i] = rhs[:, i, 0]
    pairs = [(i, j) for i in range(M) for j in range(i + 1, M)]
    # one product buffer per thread, reused for each of its pairs (a pair
    # fills the leading n_i rows); with the single malloc arena of
    # gp.retain_freed_memory, the allocating thread does not matter
    bufs = [np.empty((max(model.n for model in experts), n_test))
            for _ in range(min(workers, len(pairs)))]

    def pair_covariance(slot, p):
        i, j = pairs[p]
        K_ij = kernel_matrix(experts[i].X, experts[j].X, hp)
        prod = np.matmul(K_ij, U[j], out=bufs[slot][:experts[i].n])
        # the column sums of prod * U_i, row by row as prod.sum(axis=0) adds
        w = np.einsum("ij,ij->j", prod, U[i])
        K_agg[:, i, j] = w
        K_agg[:, j, i] = w

    fan_out(pair_covariance, len(pairs), workers)
    # every U_i and buffer goes before the factorization
    del U, bufs

    L = None
    if np.all(np.isfinite(K_agg)):
        try:
            L = np.linalg.cholesky(K_agg)
        except np.linalg.LinAlgError:
            pass
    if L is None:
        L = np.empty_like(K_agg)
        for t in range(n_test):
            try:
                L[t] = chol_with_jitter(K_agg[t])[0]
            except NumericalBreakdown as exc:
                raise NumericalBreakdown(f"test point {t}: {exc}",
                                         jitters_tried=exc.jitters_tried, test_index=t) from exc
    z = np.linalg.solve(L, rhs)
    z_k, z_mu = z[:, :, 0], z[:, :, 1]
    means = np.einsum("tm,tm->t", z_k, z_mu)
    variances = hp.output_variance + hp.noise_variance - np.einsum("tm,tm->t", z_k, z_k)
    floor = hp.noise_variance * _VARIANCE_GUARD
    return AggregatedPrediction(means, np.maximum(variances, floor))


def grbcm_fuse(means, variances, prior_precision: float):
    """Pointwise GRBCM fusion of one committee's stacked expert statistics.

    Row 0 is the communication expert, the base of the fusion: its precision
    is subtracted with the surplus weight mass. Row 1, the first augmented
    expert, keeps weight 1; later rows get the entropy gap between the
    communication density and theirs, clamped at 0. The fused precision is
    floored (counted) on underflow. Returns (mean, var, betas, floored
    count), with one row of ``betas`` per augmented expert.
    """
    means, variances = _as_expert_matrices(means, variances)
    betas = np.ones_like(means[1:])
    betas[1:] = _entropy_gap(variances[:1], variances[2:])
    mean, var, floored = _fuse(means[1:], variances[1:], betas,
                               floor=_PRECISION_FLOOR_RATIO * prior_precision,
                               base=(means[0], variances[0]))
    return mean, var, betas, floored


def grbcm(ensemble: ExpertEnsemble, Xstar: np.ndarray) -> AggregatedPrediction:
    """Committee correction against a communication expert.

    One pass of :func:`experts_predict` over the augmented committee gives
    the communication expert (row 0) and the augmented experts built on it;
    see :func:`grbcm_fuse` for their weights. The correction term divides
    out the communication density rather than the prior.
    """
    means, variances = experts_predict(ensemble, Xstar, augmented=True)
    prior_precision = 1.0 / (ensemble.hp.output_variance + ensemble.hp.noise_variance)
    mean, var, betas, floored = grbcm_fuse(means, variances, prior_precision)
    return AggregatedPrediction(mean, var, betas=betas, degeneracy_count=floored)

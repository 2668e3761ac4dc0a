"""Aggregation rules that fuse per-expert predictive distributions.

PoE, GPoE, BCM, RBCM and GRBCM are one closed-form formula in precision
(inverse variance) space, the weighted form of Deisenroth & Ng (2015): the
fused precision is ``sum_i beta_i / var_i + (1 - sum_i beta_i) / var_b``.
PoE and GPoE take no base density ``b``; BCM and RBCM take the prior, so
far-from-data predictions recover it. GRBCM fuses one committee of M
densities, stacked like every other rule's: row 0 is the communication
expert, the base of its fusion, and rows 1 onward are the augmented experts
that :func:`prepare_grbcm` returns unbuilt. Each augmented expert is built,
predicted and dropped inside its own prediction task, so GRBCM's memory is
O(workers m0^2) rather than O(M m0^2); the price is that the augmented
experts are built again on every prediction call, where a stored list
would be built once. The rules differ only in their weights
and in their precision floor, a multiple of the prior precision
``1 / prior_var``; every rule but PoE takes ``prior_var``
(:attr:`Hyperparams.prior_variance`) as a float.

NPAE instead regresses the target on the M expert means, one M x M system
per test point. It streams the test points in blocks: the fewest near-equal
blocks (``np.array_split``) whose working set, ``8 B (N + M^2)`` bytes for
``B`` points, N training rows and M experts, fits 32 MiB, the largest freed
block :func:`gp.retain_freed_memory` keeps on the heap. Its memory is then
O(B (N + M^2)) however many points are asked for, at the cost of
(blocks - 1) M (M - 1) / 2 pair kernels computed again; a test set that fits
is one block; each block returns its means and variances, and the blocks
are joined in order. Both of its per-expert loops, the M expert terms
(:func:`gp._expert_terms`, each writing its own diagonal entry of the
systems) and the M (M - 1) / 2 expert-pair products that fill the rest, are
dealt round-robin to the committee's ``workers`` slots, the calling thread
and up to ``workers - 1`` new threads (:func:`gp.fan_out`, which pins BLAS
to one thread while they run); every call in them releases the interpreter
lock.
The result does not depend on the slot count.
Each block's points are solved as one batch on the calling thread: one
stacked Cholesky factorization and one stacked solve against the factors.
Only if a block cannot be factored does each of its points get the
escalating-jitter ladder of :func:`gp.chol_with_jitter`, and the solve
stays the batched one.
The other rules read their expert rows from :func:`experts_predict`, which
deals the experts to the same slots, and so are GRBCM's augmented experts,
each factored in the slot that predicts it with the lock released.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .ensemble import ExpertEnsemble, experts_predict
from .errors import NumericalBreakdown
from .gp import (_RETAINED_BLOCK_BYTES, _VARIANCE_GUARD, BlockExtension, _expert_terms,
                 as_test_inputs, chol_with_jitter, fan_out, triangular_product)
# unused here; the benchmark's traced run patches these names in this module
from .gp import cho_solve, predict  # noqa: F401
from .kernel import kernel_matrix

# precision floor for the BCM-family correction: degeneracy is signalled by
# the counter, not by a crash
_PRECISION_FLOOR_RATIO = 1e-12
# the largest working set, in bytes, of one block of NPAE's test points: the
# largest freed block the heap keeps after gp.retain_freed_memory, so each
# block reuses the memory the block before it freed
_NPAE_BLOCK_BYTES = _RETAINED_BLOCK_BYTES


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


def _check_prior(prior_var: float) -> None:
    if not (prior_var > 0.0 and np.isfinite(prior_var)):
        raise ValueError(f"prior variance must be finite and > 0, got {prior_var}")


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


def beta_entropy(base_var, expert_var):
    """Differential-entropy gap between a base and an expert predictive density.

    ``0.5 * (log base_var - log expert_var)``, clamped below at 0 so a
    numerically overshooting expert simply loses its vote. The base is the
    prior for GPoE and RBCM and the communication expert for GRBCM.
    """
    if np.any(np.asarray(expert_var) <= 0):
        raise ValueError("expert_var must be > 0")
    return np.maximum(0.0, 0.5 * (np.log(base_var) - np.log(expert_var)))


def poe(means, variances) -> AggregatedPrediction:
    """Product of experts with unit weights: precisions simply add."""
    means, variances = _as_expert_matrices(means, variances)
    # a sum of positive precisions never reaches a floor of 0
    mean, var, _ = _fuse(means, variances, np.ones_like(means), floor=0.0)
    return AggregatedPrediction(mean, var)


def gpoe(means, variances, prior_var: float,
         mode: str = "uniform") -> AggregatedPrediction:
    """Generalized product of experts.

    ``uniform`` uses weights 1/M: the mean equals the PoE mean and the
    variance is exactly M times the PoE variance. ``entropy`` weighs each
    expert by :func:`beta_entropy`; where every weight vanishes the precision
    is floored at the prior precision (the blow-up stays visible in betas).
    """
    means, variances = _as_expert_matrices(means, variances)
    _check_prior(prior_var)
    if mode == "uniform":
        base = poe(means, variances)
        return AggregatedPrediction(base.means, means.shape[0] * base.variances)
    if mode != "entropy":
        raise ValueError(f"unknown gpoe mode {mode!r}")
    betas = beta_entropy(prior_var, variances)
    mean, var, floored = _fuse(means, variances, betas, floor=1.0 / prior_var)
    return AggregatedPrediction(mean, var, betas=betas, degeneracy_count=floored)


def bcm(means, variances, prior_var: float) -> AggregatedPrediction:
    """Bayesian committee machine: unit weights plus a prior correction term."""
    means, variances = _as_expert_matrices(means, variances)
    _check_prior(prior_var)
    mean, var, floored = _fuse(means, variances, np.ones_like(means),
                               floor=_PRECISION_FLOOR_RATIO * (1.0 / prior_var),
                               base=(0.0, prior_var))
    return AggregatedPrediction(mean, var, degeneracy_count=floored)


def rbcm(means, variances, prior_var: float) -> AggregatedPrediction:
    """Robust BCM: entropy weights on experts, prior fills the leftover mass."""
    means, variances = _as_expert_matrices(means, variances)
    _check_prior(prior_var)
    betas = beta_entropy(prior_var, variances)
    mean, var, floored = _fuse(means, variances, betas,
                               floor=_PRECISION_FLOOR_RATIO * (1.0 / prior_var),
                               base=(0.0, prior_var))
    return AggregatedPrediction(mean, var, betas=betas, degeneracy_count=floored)


def _npae_block_count(n_test: int, n_train: int, M: int) -> int:
    """The fewest near-equal blocks of ``n_test`` test points for which the
    largest block's working set, ``8 B (n_train + M^2)`` bytes for ``B``
    points, fits ``_NPAE_BLOCK_BYTES``.

    No block holds a single point while ``n_test >= 2``: a lone column's
    variance sum takes another summation order than a batch's, so its last
    bits would depend on the split. Only a budget that fits fewer than two
    points lets a block, of two or three points, exceed it.
    """
    fits = max(1, _NPAE_BLOCK_BYTES // (8 * (n_train + M * M)))
    return max(1, min(-(-n_test // fits), n_test // 2))


def _npae_block(ensemble: ExpertEnsemble, Xstar: np.ndarray, rows: np.ndarray,
                pairs) -> tuple[np.ndarray, np.ndarray]:
    """NPAE's means and variances at the test points ``Xstar[rows]``, one
    block of the whole test set ``Xstar``; a breakdown names its point by
    its index in ``Xstar``.
    """
    hp = ensemble.hp
    experts = ensemble.experts
    workers = ensemble.workers
    M = len(experts)
    Xstar = Xstar[rows]
    n_test = rows.size
    rhs = np.empty((n_test, M, 2))    # [cov[mu_i, y*], mu_i] per test point
    K_agg = np.empty((n_test, M, M))  # cov[mu_i, mu_j] per test point
    U = [None] * M                    # C_i^-1 K_i* = L_i^-T V_i

    def expert_terms(i):
        rhs[:, i, 1], rhs[:, i, 0], V = _expert_terms(experts[i], Xstar)
        K_agg[:, i, i] = rhs[:, i, 0]
        U[i] = triangular_product(experts[i].chol_inv, V, transpose=True)

    fan_out(expert_terms, M, workers)

    def pair_covariance(p):
        i, j = pairs[p]
        prod = kernel_matrix(experts[i].X, experts[j].X, hp) @ U[j]
        # the column sums of prod * U_i, row by row as prod.sum(axis=0) adds
        w = np.einsum("ij,ij->j", prod, U[i])
        K_agg[:, i, j] = w
        K_agg[:, j, i] = w

    fan_out(pair_covariance, len(pairs), workers)
    # every U_i goes before the factorization
    del U

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
                raise NumericalBreakdown(f"test point {rows[t]}: {exc}",
                                         jitters_tried=exc.jitters_tried,
                                         test_index=int(rows[t])) from exc
    z = np.linalg.solve(L, rhs)
    z_k, z_mu = z[:, :, 0], z[:, :, 1]
    return (np.einsum("tm,tm->t", z_k, z_mu),
            np.maximum(hp.prior_variance - np.einsum("tm,tm->t", z_k, z_k),
                       hp.noise_variance * _VARIANCE_GUARD))


def npae(ensemble: ExpertEnsemble, Xstar: np.ndarray) -> AggregatedPrediction:
    """Nested pointwise aggregation: treat expert means as correlated random
    variables and regress the target on them.

    Per test point, the M x M covariance ``K_A`` of the expert means (its
    diagonal equals the cross-covariance ``k`` with the target) is factored
    as ``K_A = L L'``; with ``z_k = L^-1 k`` and ``z_mu = L^-1 mu`` the mean is
    ``z_k . z_mu`` and the variance the prior minus ``|z_k|^2``, floored as in
    :func:`gp.predict`. Building ``K_A`` costs one product per expert pair,
    so time grows with the square of the total training size N.

    The indices of the test points are split by ``np.array_split`` into the
    fewest near-equal blocks whose working set, ``8 B (N + M^2)`` bytes for
    ``B`` points (every expert's ``C_i^-1 K_i*`` and the block's ``K_A`` stack),
    fits 32 MiB, the largest block :func:`gp.retain_freed_memory` keeps on
    the heap; no block holds a single point. So memory is
    O(B (N + M^2)) whatever the number of test points, and each block reuses
    what the block before it freed. A test set that fits is one block. Each
    block returns its own means and variances, joined here in order, and
    each further block computes the M (M - 1) / 2 pair kernels ``K_ij``
    again.
    A non-finite test input raises :class:`DataError` before any block
    (:func:`gp.as_test_inputs`).

    Within a block, every point is factored in one stacked Cholesky call
    and solved in one stacked call. If the block's stack holds a non-finite
    entry or any of its points fails to factor, each of that block's points
    gets its factor from :func:`gp.chol_with_jitter` instead, so the jitter
    it needs, or the :class:`NumericalBreakdown` naming the first failing
    test point by its index in ``Xstar``, is that of a per-point solve.

    The expert terms and then the pair products are dealt round-robin to
    ``ensemble.workers`` slots by :func:`gp.fan_out`, the calling thread
    running slot 0, with BLAS on one thread; each expert's term writes its
    own diagonal entry of ``K_A`` and each pair its two off-diagonal ones.
    The blocks depend only on the number of test points, N and M, so every
    slot count gives the same bits. An exception in any slot is raised here
    once every slot has stopped.
    """
    Xstar = as_test_inputs(Xstar)
    experts = ensemble.experts
    M = len(experts)
    n_test = Xstar.shape[0]
    blocks = np.array_split(np.arange(n_test),
                            _npae_block_count(n_test, sum(model.n for model in experts), M))
    pairs = [(i, j) for i in range(M) for j in range(i + 1, M)]
    means, variances = zip(*[_npae_block(ensemble, Xstar, rows, pairs) for rows in blocks])
    return AggregatedPrediction(np.concatenate(means), np.concatenate(variances))


def grbcm_fuse(means, variances, prior_var: float) -> AggregatedPrediction:
    """Pointwise GRBCM fusion of one committee's stacked expert statistics.

    Row 0 is the communication expert, the base of the fusion: its precision
    is subtracted with the surplus weight mass. Row 1, the first augmented
    expert, keeps weight 1; later rows get :func:`beta_entropy` against the
    communication density. The fused precision is floored (counted) on
    underflow. ``betas`` has one row per augmented expert.
    """
    means, variances = _as_expert_matrices(means, variances)
    _check_prior(prior_var)
    betas = np.ones_like(means[1:])
    betas[1:] = beta_entropy(variances[:1], variances[2:])
    mean, var, floored = _fuse(means[1:], variances[1:], betas,
                               floor=_PRECISION_FLOOR_RATIO * (1.0 / prior_var),
                               base=(means[0], variances[0]))
    return AggregatedPrediction(mean, var, betas=betas, degeneracy_count=floored)


def grbcm(ensemble: ExpertEnsemble, extensions: list[Callable[[], BlockExtension]],
          Xstar: np.ndarray) -> AggregatedPrediction:
    """Committee correction against a communication expert.

    One pass of :func:`experts_predict` over ``extensions``, the unbuilt
    augmented experts of :func:`prepare_grbcm`, gives the communication
    expert (row 0) and the augmented experts; see :func:`grbcm_fuse` for
    their weights. The correction term divides out the communication density
    rather than the prior.

    Each augmented expert is built inside the prediction task that predicts
    its row and is dropped with it (:func:`gp.predict_extended`), so at most
    ``ensemble.workers`` of them are alive at once: memory is
    O(workers m0^2) for subsets of m0 rows, whatever M is. The trade is
    that every call builds the augmented experts again, as the benchmark's
    GRBCM rule always did by preparing them inside its timed prediction.
    """
    means, variances = experts_predict(ensemble, Xstar, extensions)
    return grbcm_fuse(means, variances, ensemble.hp.prior_variance)

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import gpcommittee.aggregate as aggregate
import gpcommittee.gp as gp
from gpcommittee import (Hyperparams, MissingCommunicationSubset,
                         NumericalBreakdown, OptimizerConfig, PriorVariance, bcm,
                         beta_entropy, fit, gpoe, grbcm, grbcm_fuse, grbcm_partition, npae,
                         poe, predict, prepare_grbcm, random_partition, rbcm, toy_generate,
                         train)
from gpcommittee.ensemble import experts_predict
from gpcommittee.gp import predict_extended
from gpcommittee.kernel import kernel_matrix


def hp_1d(log_sf=0.0, log_l=0.0, log_noise=-1.0):
    return Hyperparams(log_sf, np.array([log_l]), log_noise)


# ---------------------------------------------------------------------------
# entropy weight

def test_beta_entropy_uninformative_expert():
    assert beta_entropy(PriorVariance(2.0), 2.0) == 0.0


def test_beta_entropy_log_gap():
    v = 0.8
    assert beta_entropy(PriorVariance(np.e * v), v) == pytest.approx(0.5, rel=1e-12)


def test_beta_entropy_clamped_at_zero():
    assert beta_entropy(PriorVariance(1.0), 1.5) == 0.0


def test_beta_entropy_rejects_nonpositive():
    with pytest.raises(ValueError):
        beta_entropy(PriorVariance(1.0), 0.0)


# ---------------------------------------------------------------------------
# PoE / GPoE

def test_poe_single_expert_unchanged():
    means = np.array([[0.4, -1.2]])
    variances = np.array([[0.5, 0.9]])
    agg = poe(means, variances)
    np.testing.assert_allclose(agg.means, means[0], rtol=1e-15)
    np.testing.assert_allclose(agg.variances, variances[0], rtol=1e-15)


def test_poe_identical_experts_divide_variance():
    M = 5
    means = np.full((M, 3), 0.7)
    variances = np.full((M, 3), 1.3)
    agg = poe(means, variances)
    np.testing.assert_allclose(agg.means, 0.7, rtol=1e-14)
    np.testing.assert_allclose(agg.variances, 1.3 / M, rtol=1e-14)


def test_poe_two_expert_weighted_mean():
    agg = poe(np.array([[0.0], [2.0]]), np.array([[1.0], [1.0]]))
    assert agg.means[0] == pytest.approx(1.0, abs=1e-15)
    assert agg.variances[0] == pytest.approx(0.5, rel=1e-15)


def test_gpoe_uniform_identical_experts_exact():
    M = 4
    means = np.full((M, 2), -0.3)
    variances = np.full((M, 2), 0.8)
    agg = gpoe(means, variances, PriorVariance(1.5), mode="uniform")
    np.testing.assert_allclose(agg.means, -0.3, rtol=1e-15)
    np.testing.assert_allclose(agg.variances, 0.8, rtol=1e-14)


def test_gpoe_uniform_identities_with_poe():
    rng = np.random.default_rng(0)
    M, n = 6, 40
    means = rng.normal(size=(M, n))
    variances = rng.uniform(0.2, 1.4, size=(M, n))
    base = poe(means, variances)
    agg = gpoe(means, variances, PriorVariance(1.5), mode="uniform")
    np.testing.assert_allclose(agg.means, base.means, atol=1e-12)
    np.testing.assert_allclose(agg.variances, M * base.variances, rtol=1e-12)


def test_gpoe_entropy_floors_at_prior_precision():
    pv = PriorVariance(2.0)
    means = np.array([[0.5], [1.5]])
    variances = np.array([[2.0], [2.0]])  # both at the prior: betas vanish
    agg = gpoe(means, variances, pv, mode="entropy")
    assert agg.variances[0] == pytest.approx(2.0, rel=1e-14)
    assert agg.degeneracy_count == 1
    np.testing.assert_array_equal(agg.betas, 0.0)


def test_gpoe_unknown_mode():
    with pytest.raises(ValueError):
        gpoe(np.ones((1, 1)), np.ones((1, 1)), PriorVariance(1.0), mode="mixed")


# ---------------------------------------------------------------------------
# BCM family

def test_bcm_single_expert_recovers_input():
    means = np.array([[0.2, 1.0]])
    variances = np.array([[0.4, 0.6]])
    agg = bcm(means, variances, PriorVariance(1.5))
    np.testing.assert_allclose(agg.means, means[0], rtol=1e-14)
    np.testing.assert_allclose(agg.variances, variances[0], rtol=1e-14)


def test_bcm_prior_recovery_and_trio_behaviour():
    pv = 1.7
    M = 4
    means = np.zeros((M, 3))
    variances = np.full((M, 3), pv)
    agg_bcm = bcm(means, variances, PriorVariance(pv))
    np.testing.assert_allclose(agg_bcm.variances, pv, rtol=1e-12)
    np.testing.assert_allclose(agg_bcm.means, 0.0, atol=1e-15)
    agg_rbcm = rbcm(means, variances, PriorVariance(pv))
    np.testing.assert_allclose(agg_rbcm.variances, pv, rtol=1e-12)
    agg_poe = poe(means, variances)
    np.testing.assert_allclose(agg_poe.variances, pv / M, rtol=1e-14)
    agg_gpoe = gpoe(means, variances, PriorVariance(pv), mode="uniform")
    np.testing.assert_allclose(agg_gpoe.variances, pv, rtol=1e-14)


def test_bcm_remark_ratio_two_experts():
    # both experts at half the prior variance: a* = 4/3
    pv = 2.4
    means = np.array([[1.0], [0.4]])
    variances = np.full((2, 1), pv / 2)
    agg_poe = poe(means, variances)
    agg_bcm = bcm(means, variances, PriorVariance(pv))
    assert agg_bcm.variances[0] == pytest.approx(4.0 / 3.0 * agg_poe.variances[0], rel=1e-12)
    assert agg_bcm.means[0] == pytest.approx(4.0 / 3.0 * agg_poe.means[0], rel=1e-12)


def test_bcm_variance_always_above_poe():
    rng = np.random.default_rng(1)
    pv = 2.0
    M, n = 7, 60
    means = rng.normal(size=(M, n))
    variances = rng.uniform(0.05, 1.0, size=(M, n)) * pv
    agg_poe = poe(means, variances)
    agg_bcm = bcm(means, variances, PriorVariance(pv))
    assert np.all(agg_bcm.variances > agg_poe.variances)


def test_rbcm_single_informative_expert_differs_from_input():
    # entropy weight below one keeps RBCM away from the exact single-expert density
    pv = 2.0
    means = np.array([[1.0]])
    variances = np.array([[0.5]])
    agg = rbcm(means, variances, PriorVariance(pv))
    assert abs(agg.means[0] - 1.0) > 1e-3
    assert abs(agg.variances[0] - 0.5) > 1e-3


def test_rbcm_identical_experts_closed_form():
    pv = 1.9
    M = 3
    var = pv / np.e  # beta = 0.5 each
    means = np.full((M, 1), 0.6)
    variances = np.full((M, 1), var)
    agg = rbcm(means, variances, PriorVariance(pv))
    precision = M * 0.5 * (np.e / pv) + (1 - M * 0.5) / pv
    assert agg.variances[0] == pytest.approx(1.0 / precision, rel=1e-12)
    np.testing.assert_allclose(agg.betas, 0.5, rtol=1e-12)


def test_bcm_precision_floor_counts_degeneracy():
    # slightly informative experts keep the corrected precision positive
    means = np.zeros((3, 1))
    variances = np.array([[0.999999], [1.0], [1.0]])
    agg = bcm(means, variances, PriorVariance(1.0))
    assert agg.degeneracy_count == 0
    # experts worse than the prior underflow the subtraction: floor + counter
    under = bcm(np.zeros((2, 1)), np.array([[2.0], [2.0]]), PriorVariance(1.0))
    assert under.degeneracy_count == 1
    assert under.variances[0] == pytest.approx(1e12, rel=1e-6)


def test_aggregated_prediction_rejects_bad_variances():
    from gpcommittee.aggregate import AggregatedPrediction
    with pytest.raises(NumericalBreakdown, match="aggregated variances"):
        AggregatedPrediction(np.zeros(2), np.array([1.0, -1.0]))


def test_inputs_validated():
    with pytest.raises(ValueError):
        poe(np.zeros((2, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        poe(np.zeros((2, 2)), np.array([[1.0, 0.0], [1.0, 1.0]]))


def _reference_rules(means, variances, pv, mu_c, var_c, prior_precision):
    """Each closed-form rule written out as its own formula."""
    M = means.shape[0]
    out = {}
    precision = np.sum(1.0 / variances, axis=0)
    var = 1.0 / precision
    out["poe"] = (var * np.sum(means / variances, axis=0), var)
    out["gpoe_uniform"] = (out["poe"][0], M * var)

    betas = np.maximum(0.0, 0.5 * (np.log(pv) - np.log(variances)))
    precision = np.sum(betas / variances, axis=0)
    floored = precision < 1.0 / pv
    var = 1.0 / np.maximum(precision, 1.0 / pv)
    out["gpoe_entropy"] = (var * np.sum(betas * means / variances, axis=0), var,
                           betas, int(np.sum(floored)))

    floor = 1e-12 * (1.0 / pv)
    for name, w, w_sum in (("bcm", 1.0, float(M)),
                           ("rbcm", betas, np.sum(betas, axis=0))):
        precision = np.sum(w / variances, axis=0) + (1.0 - w_sum) * (1.0 / pv)
        floored = precision < floor
        var = 1.0 / np.maximum(precision, floor)
        out[name] = (var * np.sum(w * means / variances, axis=0), var, int(np.sum(floored)))

    g = np.ones_like(means)
    g[1:] = np.maximum(0.0, 0.5 * (np.log(var_c)[None, :] - np.log(variances[1:])))
    g_sum = np.sum(g, axis=0)
    precision = np.sum(g / variances, axis=0) - (g_sum - 1.0) / var_c
    floor = 1e-12 * prior_precision
    floored = precision < floor
    var = 1.0 / np.maximum(precision, floor)
    mean = var * (np.sum(g * means / variances, axis=0) - (g_sum - 1.0) * mu_c / var_c)
    out["grbcm"] = (mean, var, g, int(np.sum(floored)))
    return out


@pytest.mark.parametrize("var_range, prior_precision, floors", [
    ((0.05, 1.2), 1.0 / 1.3, False),
    # experts worse than the prior, and a prior precision so large that
    # GRBCM's floor passes its precision: every floor fires somewhere
    ((1.0, 3.0), 1e12, True),
])
def test_fusion_matches_reference_formulas(var_range, prior_precision, floors):
    rng = np.random.default_rng(11)
    M, n, pv = 7, 50, 1.3
    means = rng.normal(size=(M, n))
    variances = rng.uniform(*var_range, size=(M, n))
    mu_c = rng.normal(size=n)
    var_c = rng.uniform(0.5, 1.3, size=n)
    ref = _reference_rules(means, variances, pv, mu_c, var_c, prior_precision)
    prior = PriorVariance(pv)

    agg = poe(means, variances)
    np.testing.assert_array_equal(agg.means, ref["poe"][0])
    np.testing.assert_array_equal(agg.variances, ref["poe"][1])
    agg = gpoe(means, variances, prior, mode="uniform")
    np.testing.assert_array_equal(agg.means, ref["gpoe_uniform"][0])
    np.testing.assert_array_equal(agg.variances, ref["gpoe_uniform"][1])
    agg = gpoe(means, variances, prior, mode="entropy")
    mean, var, betas, count = ref["gpoe_entropy"]
    np.testing.assert_array_equal(agg.means, mean)
    np.testing.assert_array_equal(agg.variances, var)
    np.testing.assert_array_equal(agg.betas, betas)
    assert agg.degeneracy_count == count

    # the prior term divides by the prior variance where the reference
    # multiplies by its inverse: equal to rounding, not bit for bit
    for rule, name in ((bcm, "bcm"), (rbcm, "rbcm")):
        agg = rule(means, variances, prior)
        mean, var, count = ref[name]
        np.testing.assert_allclose(agg.means, mean, rtol=1e-14, atol=0)
        np.testing.assert_allclose(agg.variances, var, rtol=1e-14, atol=0)
        assert agg.degeneracy_count == count

    mean, var, betas, count = grbcm_fuse(np.vstack([mu_c, means]), np.vstack([var_c, variances]),
                                         prior_precision)
    ref_mean, ref_var, ref_betas, ref_count = ref["grbcm"]
    np.testing.assert_array_equal(mean, ref_mean)
    np.testing.assert_array_equal(var, ref_var)
    np.testing.assert_array_equal(betas, ref_betas)
    assert count == ref_count

    counts = (ref["gpoe_entropy"][3], ref["bcm"][2], ref["grbcm"][3])
    assert all(c > 0 for c in counts) if floors else counts == (0, 0, 0)


# ---------------------------------------------------------------------------
# NPAE

def _committee(n=200, M=4, seed=0, kind="random", max_evals=30):
    ds = toy_generate(n, 50, seed=seed)
    if kind == "grbcm":
        part = grbcm_partition(ds.X_train, M, seed=seed)
    else:
        part = random_partition(n, M, seed=seed)
    committee = train(ds.X_train, ds.y_train, part,
                      OptimizerConfig(max_evals=max_evals, initial_hp=Hyperparams.default(1)))
    return ds, committee


def test_npae_single_expert_equals_full_gp():
    ds, committee = _committee(n=200, M=1)
    full = fit(ds.X_train, ds.y_train, committee.hp)
    fm, fv = predict(full, ds.X_test)
    agg = npae(committee, ds.X_test)
    assert np.max(np.abs(agg.means - fm)) <= 1e-8 * np.max(np.abs(fm))
    assert np.max(np.abs(agg.variances - fv)) <= 1e-8 * np.max(fv)


def test_npae_far_recovers_prior():
    ds, committee = _committee(n=150, M=3)
    agg = npae(committee, np.array([[80.0]]))
    prior = committee.hp.output_variance + committee.hp.noise_variance
    assert abs(agg.means[0]) < 1e-6
    assert agg.variances[0] == pytest.approx(prior, rel=1e-8)


@pytest.mark.parametrize("M", [3, 4])
def test_npae_matches_dense_reference(M):
    ds, committee = _committee(n=200, M=M, seed=M)
    Xs = ds.X_test[:40]
    hp, experts = committee.hp, committee.experts
    agg = npae(committee, Xs)

    # NPAE from its definition, by dense solves: expert i predicts
    # mu_i = K_i*' C_i^-1 y_i; cov[mu_i, y*] = K_i*' C_i^-1 K_i*; and
    # cov[mu_i, mu_j] = U_i' K_ij U_j with U_i = C_i^-1 K_i*, the noisy C_i
    # in place of K_ij when i == j
    C, U, mu = [], [], []
    for model in experts:
        Ci = kernel_matrix(model.X, model.X, hp)
        Ci.flat[:: model.n + 1] += hp.noise_variance + model.jitter_used
        Ks = kernel_matrix(model.X, Xs, hp)
        C.append(Ci)
        U.append(np.linalg.solve(Ci, Ks))
        mu.append(Ks.T @ np.linalg.solve(Ci, model.y))
    blocks = [[C[i] if i == j else kernel_matrix(experts[i].X, experts[j].X, hp)
               for j in range(M)] for i in range(M)]
    expert_cond = max(np.linalg.cond(Ci) for Ci in C)
    prior = hp.output_variance + hp.noise_variance
    eps = np.finfo(float).eps
    for t in range(Xs.shape[0]):
        K_A = np.array([[U[i][:, t] @ blocks[i][j] @ U[j][:, t] for j in range(M)]
                        for i in range(M)])
        k = np.diag(K_A).copy()
        m = np.array([mu_i[t] for mu_i in mu])
        w = np.linalg.solve(K_A, k)
        # to first order, K_A, k and mu each carry a relative error of
        # cond(C_i) eps from the expert systems, and the point's system
        # K_A w = k amplifies it by cond(K_A): |dw| <= cond(K_A) cond(C) eps |w|,
        # so the mean w.m is off by at most that times |m| and the variance
        # prior - k.w by that times |k|
        scale = np.linalg.cond(K_A) * expert_cond * eps * np.linalg.norm(w)
        assert abs(agg.means[t] - w @ m) <= scale * np.linalg.norm(m)
        assert abs(agg.variances[t] - max(prior - k @ w, hp.noise_variance * (1 - 1e-10))) \
            <= scale * np.linalg.norm(k)


def test_npae_ladder_runs_only_when_the_batch_fails(monkeypatch):
    ds, committee = _committee(n=150, M=3)
    calls = []
    ladder_step = aggregate.chol_with_jitter

    def counted(A):
        calls.append(A.shape)
        return ladder_step(A)

    monkeypatch.setattr(aggregate, "chol_with_jitter", counted)
    batch = npae(committee, ds.X_test)
    assert calls == []
    # the far point's system is all zeros: the stacked factorization fails
    # and every point is factored by the jitter ladder instead
    ladder = npae(committee, np.vstack([ds.X_test, [[80.0]]]))
    assert calls == [(3, 3)] * (ds.n_test + 1)
    np.testing.assert_allclose(ladder.means[:-1], batch.means,
                               rtol=0, atol=1e-12 * np.max(np.abs(batch.means)))
    np.testing.assert_allclose(ladder.variances[:-1], batch.variances, rtol=1e-12, atol=0)
    prior = committee.hp.output_variance + committee.hp.noise_variance
    assert ladder.means[-1] == 0.0
    assert ladder.variances[-1] == pytest.approx(prior, rel=1e-14)


def test_npae_non_finite_factor_names_the_first_test_point():
    ds, committee = _committee(n=150, M=3)
    experts = list(committee.experts)
    experts[1] = replace(experts[1], chol_inv=np.full_like(experts[1].chol_inv, np.nan))
    with pytest.raises(NumericalBreakdown) as info:
        npae(replace(committee, experts=experts), ds.X_test)
    assert info.value.test_index == 0
    assert str(info.value).startswith("test point 0:")


def _switching_often(fn):
    """``fn()`` with the interpreter switching threads as often as it can."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return fn()
    finally:
        sys.setswitchinterval(switch)


def _uneven_committee(M):
    # 604 rows do not split evenly into 3 or 8 subsets, so the experts differ
    # in size (and some NPAE pair products fill only a leading slice of a
    # thread's buffer)
    _, committee = _committee(n=604, M=M, seed=M, max_evals=10)
    sizes = {model.n for model in committee.experts}
    assert len(sizes) == (1 if M == 1 else 2)
    return committee


@pytest.mark.parametrize("workers", [2, 5])
@pytest.mark.parametrize("M", [1, 3, 8])
def test_npae_workers_give_the_same_bits(M, workers):
    # 5 workers is more threads than cores, and more than the 3 pairs of
    # M=3. The products are large enough that the threads run them at the
    # same time: with one buffer shared by every thread, this test fails
    committee = _uneven_committee(M)
    assert committee.workers == 1
    Xstar = np.linspace(-0.5, 1.5, 2000)[:, None]
    serial = npae(committee, Xstar)
    fanned = _switching_often(lambda: npae(replace(committee, workers=workers), Xstar))
    np.testing.assert_array_equal(fanned.means, serial.means)
    np.testing.assert_array_equal(fanned.variances, serial.variances)


@pytest.mark.parametrize("workers", [1, 2, 5])
@pytest.mark.parametrize("M", [1, 3, 8])
@pytest.mark.parametrize("rows", ["plain", "augmented", "grbcm"])
def test_expert_rows_give_the_same_bits_for_every_workers(rows, M, workers):
    # the reference takes one expert per call, so nothing in it is fanned out
    committee = _uneven_committee(M)
    committee = prepare_grbcm(replace(committee,
                                      partition=committee.partition.with_communication(0)))
    Xstar = np.linspace(-0.5, 1.5, 2000)[:, None]
    if rows == "plain":
        reference = [np.vstack(r) for r in zip(*(predict(m, Xstar) for m in committee.experts))]
    else:
        comm = committee.experts[0]
        reference = [np.vstack([predict(comm, Xstar)[k]]
                               + [predict_extended(comm, [ext], Xstar)[k][1]
                                  for ext in committee.augmented_experts])
                     for k in (0, 1)]
        if rows == "grbcm":
            prior_precision = 1.0 / (committee.hp.output_variance + committee.hp.noise_variance)
            reference = grbcm_fuse(*reference, prior_precision)[:2]
    fanned = replace(committee, workers=workers)
    if rows == "grbcm":
        agg = _switching_often(lambda: grbcm(fanned, Xstar))
        got = [agg.means, agg.variances]
    else:
        got = _switching_often(lambda: experts_predict(fanned, Xstar,
                                                       augmented=rows == "augmented"))
    assert len(got) == len(reference) == 2
    for a, b in zip(got, reference):
        np.testing.assert_array_equal(a, b)


def test_experts_predict_raises_the_first_failing_expert_from_a_pool_thread(monkeypatch):
    ds, committee = _committee(n=150, M=4)
    # with 2 workers, expert 1 runs on the second thread and expert 2 on the
    # first. Expert 2 fails at once and expert 1 only after a pause, so the
    # error raised first is expert 2's, but a serial loop meets expert 1's
    # first, and the second thread is still running when expert 2 fails
    delays = {id(committee.experts[1].X): (1, 0.2), id(committee.experts[2].X): (2, 0.0)}
    block = gp.kernel_matrix
    raised_on = []

    class ExpertFailure(Exception):
        pass

    def failing(X, X_prime, hp):
        if id(X) in delays:
            k, delay = delays[id(X)]
            time.sleep(delay)
            raised_on.append(threading.current_thread())
            raise ExpertFailure(f"expert {k} failed")
        return block(X, X_prime, hp)

    monkeypatch.setattr(gp, "kernel_matrix", failing)
    outcome = []

    def call():
        try:
            experts_predict(replace(committee, workers=2), ds.X_test)
        except ExpertFailure as exc:
            # counted as the exception arrives: the pool threads must be gone
            outcome.append((str(exc), threading.active_count()))

    threads_before = threading.active_count()
    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    # only the caller itself runs beside the threads that ran before
    assert outcome == [("expert 1 failed", threads_before + 1)]
    # raised on two pool threads, not on the caller
    assert len(set(raised_on)) == 2 and caller not in raised_on
    assert threading.active_count() == threads_before


def test_npae_worker_exception_propagates(monkeypatch):
    ds, committee = _committee(n=150, M=4)
    failing_input = committee.experts[2].X
    pair_block = aggregate.kernel_matrix
    raised_on = []

    class PairFailure(Exception):
        pass

    def failing(X, X_prime, hp):
        if X_prime is failing_input:
            raised_on.append(threading.get_ident())
            raise PairFailure("pair product failed")
        return pair_block(X, X_prime, hp)

    monkeypatch.setattr(aggregate, "kernel_matrix", failing)
    outcome = []

    def call():
        try:
            npae(replace(committee, workers=2), ds.X_test)
        except PairFailure as exc:
            outcome.append(exc)

    threads_before = threading.active_count()
    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert [str(exc) for exc in outcome] == ["pair product failed"]
    # raised on a pool thread, and every pool thread has stopped
    assert raised_on and caller.ident not in raised_on
    assert threading.active_count() == threads_before


def test_prediction_leaves_models_and_inputs_untouched():
    # the triangular products overwrite their right-hand side in place;
    # no stored array or input may be among those overwritten
    ds, committee = _committee(n=240, M=3, kind="grbcm")
    Xstar = ds.X_test.copy()
    fields = ("X", "y", "chol_inv", "weight_vector")
    stored = [[getattr(m, f).copy() for f in fields] for m in committee.experts]
    prepared = prepare_grbcm(committee)
    ext_fields = ("X", "y", "cross", "schur_inv")
    stored_ext = [[getattr(e, f).copy() for f in ext_fields]
                  for e in prepared.augmented_experts]
    comm = prepared.experts[prepared.partition.communication_index]

    def outputs():
        out = [v for m in prepared.experts for v in predict(m, Xstar)]
        out += predict_extended(comm, prepared.augmented_experts, Xstar)
        agg = npae(prepared, Xstar)
        return out + [agg.means, agg.variances]

    first = outputs()
    second = outputs()
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    for model, saved in zip(prepared.experts, stored):
        for f, value in zip(fields, saved):
            np.testing.assert_array_equal(getattr(model, f), value)
    for ext, saved in zip(prepared.augmented_experts, stored_ext):
        for f, value in zip(ext_fields, saved):
            np.testing.assert_array_equal(getattr(ext, f), value)
    np.testing.assert_array_equal(Xstar, ds.X_test)


# ---------------------------------------------------------------------------
# GRBCM

def test_grbcm_fuse_first_row_weight_one():
    rng = np.random.default_rng(2)
    mu_c, var_c = rng.normal(size=5), rng.uniform(0.5, 1.0, size=5)
    mu_aug = rng.normal(size=(3, 5))
    var_aug = rng.uniform(0.1, 0.4, size=(3, 5))
    _, _, betas, _ = grbcm_fuse(np.vstack([mu_c, mu_aug]), np.vstack([var_c, var_aug]), 1.0)
    np.testing.assert_array_equal(betas[0], 1.0)


def test_grbcm_fuse_uninformative_subsets_collapse_to_first():
    # every extra augmented expert matches the communication density exactly
    rng = np.random.default_rng(3)
    n = 6
    mu_c, var_c = rng.normal(size=n), rng.uniform(0.5, 1.0, size=n)
    mu_first = rng.normal(size=n)
    var_first = rng.uniform(0.2, 0.4, size=n)
    mu_aug = np.vstack([mu_first, mu_c, mu_c])
    var_aug = np.vstack([var_first, var_c, var_c])
    mean, var, betas, floored = grbcm_fuse(np.vstack([mu_c, mu_aug]),
                                           np.vstack([var_c, var_aug]), 1.0)
    np.testing.assert_array_equal(betas[1:], 0.0)
    np.testing.assert_allclose(mean, mu_first, rtol=1e-12)
    np.testing.assert_allclose(var, var_first, rtol=1e-12)
    assert floored == 0


def test_grbcm_fuse_three_expert_closed_form():
    # communication variance e times the second augmented variance: beta = 0.5
    var_c = 1.1
    var_2 = 0.7
    var_3 = var_c / np.e
    mu_c, mu_2, mu_3 = 0.4, 1.2, -0.5
    mean, var, betas, _ = grbcm_fuse(
        np.vstack([[mu_c], [mu_2], [mu_3]]), np.vstack([[var_c], [var_2], [var_3]]), 1.0)
    beta3 = 0.5
    precision = 1.0 / var_2 + beta3 / var_3 - beta3 / var_c
    expected_var = 1.0 / precision
    expected_mean = expected_var * (mu_2 / var_2 + beta3 * mu_3 / var_3
                                    - beta3 * mu_c / var_c)
    assert betas[1, 0] == pytest.approx(beta3, rel=1e-12)
    assert var[0] == pytest.approx(expected_var, rel=1e-12)
    assert mean[0] == pytest.approx(expected_mean, rel=1e-12)


def test_grbcm_two_subsets_equals_full_gp():
    ds, committee = _committee(n=160, M=2, kind="grbcm")
    prepared = prepare_grbcm(committee)
    agg = grbcm(prepared, ds.X_test)
    full = fit(ds.X_train, ds.y_train, committee.hp)
    fm, fv = predict(full, ds.X_test)
    assert np.max(np.abs(agg.means - fm)) <= 1e-10 * max(1.0, np.max(np.abs(fm)))
    assert np.max(np.abs(agg.variances - fv)) <= 1e-10 * np.max(fv)


def test_grbcm_requires_preparation():
    ds, committee = _committee(n=120, M=3, kind="grbcm")
    with pytest.raises(MissingCommunicationSubset):
        grbcm(committee, ds.X_test)


def test_grbcm_betas_recorded_per_point():
    ds, committee = _committee(n=150, M=3, kind="grbcm")
    prepared = prepare_grbcm(committee)
    agg = grbcm(prepared, ds.X_test)
    assert agg.betas.shape == (2, ds.n_test)
    np.testing.assert_array_equal(agg.betas[0], 1.0)
    assert np.all(agg.betas >= 0.0)


# ---------------------------------------------------------------------------
# cross-rule invariants on a real committee

def test_prior_recovery_far_from_data_all_rules():
    ds, committee = _committee(n=150, M=3, kind="grbcm")
    far = np.array([[70.0]])
    means, variances = experts_predict(committee, far)
    pv = PriorVariance.from_hyperparams(committee.hp)
    M = committee.M
    assert poe(means, variances).variances[0] == pytest.approx(pv.value / M, rel=1e-8)
    assert gpoe(means, variances, pv).variances[0] == pytest.approx(pv.value, rel=1e-8)
    assert bcm(means, variances, pv).variances[0] == pytest.approx(pv.value, rel=1e-6)
    assert rbcm(means, variances, pv).variances[0] == pytest.approx(pv.value, rel=1e-6)
    prepared = prepare_grbcm(committee)
    assert grbcm(prepared, far).variances[0] == pytest.approx(pv.value, rel=1e-6)

from dataclasses import fields, replace

import numpy as np
import pytest

from gpcommittee import (DataError, ExpertBlocks, Hyperparams, InvalidPartition,
                         MissingCommunicationSubset, NumericalBreakdown,
                         experts_predict, factorized_nlml, fit, grbcm_partition, minimize,
                         nlml, predict, prepare_grbcm, random_partition, toy_generate, train)
from gpcommittee.gp import BlockExtension, blas_threads
from gpcommittee.partition import Partition, PartitionKind, disjoint_partition


def hp_1d(log_sf=0.0, log_l=0.0, log_noise=-1.0):
    return Hyperparams(log_sf, np.array([log_l]), log_noise)


def test_single_expert_matches_exact_nlml():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(50, 1))
    y = np.sin(5 * X[:, 0]) + 0.2 * rng.normal(size=50)
    part = random_partition(50, 1, seed=0)
    hp = hp_1d()
    v_fact, g_fact = factorized_nlml(ExpertBlocks(X, y, part), hp)
    v_full, g_full = nlml(X, y, hp)
    assert v_fact == pytest.approx(v_full, rel=1e-12)
    np.testing.assert_allclose(g_fact, g_full, rtol=1e-12)


def test_two_far_clusters_approximate_full_nlml():
    # far-separated clusters make the full covariance nearly block diagonal
    rng = np.random.default_rng(1)
    X = np.concatenate([rng.uniform(0, 1, 50), rng.uniform(100, 101, 50)])[:, None]
    y = np.sin(3 * X[:, 0]) + 0.3 * rng.normal(size=100)
    part = disjoint_partition(X, 2, seed=0)
    hp = hp_1d(log_noise=-0.5)
    v_fact, _ = factorized_nlml(ExpertBlocks(X, y, part), hp)
    v_full, _ = nlml(X, y, hp)
    assert abs(v_fact - v_full) / abs(v_full) < 1e-3


def test_factorized_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    step = 1e-6
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    blocks = ExpertBlocks(X, y, random_partition(30, 3, seed=1))
    vec = np.array([0.1, -0.2, 0.3, -0.6])
    _, grad = factorized_nlml(blocks, Hyperparams.from_vector(vec))
    fd = np.empty_like(grad)
    for j in range(vec.size):
        plus, minus = vec.copy(), vec.copy()
        plus[j] += step
        minus[j] -= step
        fd[j] = (factorized_nlml(blocks, Hyperparams.from_vector(plus))[0]
                 - factorized_nlml(blocks, Hyperparams.from_vector(minus))[0]) / (2 * step)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


def test_sum_decomposition():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(60, 1))
    y = rng.normal(size=60)
    part = random_partition(60, 4, seed=2)
    hp = hp_1d()
    v, _ = factorized_nlml(ExpertBlocks(X, y, part), hp)
    per_expert = sum(nlml(X[idx], y[idx], hp)[0] for idx in part.subsets)
    assert v == pytest.approx(per_expert, rel=1e-12)


def test_train_recovers_noise_scale():
    ds = toy_generate(1000, 100, seed=0)
    part = disjoint_partition(ds.X_train, 4, seed=0)
    committee = train(ds.X_train, ds.y_train, part, 80)
    noise_std_raw = np.exp(committee.hp.log_noise) * ds.norm_stats.y_std
    assert 0.3 <= noise_std_raw <= 0.8  # generating noise std is 0.5
    assert committee.train_time_seconds > 0


def test_train_single_expert_equals_exact_training():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(80, 1))
    y = np.sin(4 * X[:, 0]) + 0.3 * rng.normal(size=80)
    part = random_partition(80, 1, seed=0)
    committee = train(X, y, part, 40)
    # train pins BLAS to one thread, whatever the environment sets
    with blas_threads(1):
        direct = minimize(lambda hp: nlml(X, y, hp), Hyperparams.default(1), 40)
    assert committee.opt_trace == tuple(direct.trace)
    assert committee.opt_stop == direct.stop
    np.testing.assert_array_equal(committee.hp.to_vector(), direct.best_hp.to_vector())


def test_train_budget_one_keeps_initial_hp():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(30, 1))
    y = rng.normal(size=30)
    part = random_partition(30, 3, seed=0)
    committee = train(X, y, part, 1)
    np.testing.assert_array_equal(committee.hp.to_vector(), Hyperparams.default(1).to_vector())
    assert len(committee.experts) == 3
    assert all(m.chol_inv.shape == (10, 10) for m in committee.experts)


def test_factor_inverse_failure_names_expert(monkeypatch):
    from gpcommittee import ensemble, gp
    calls = []

    def dtrtri_failing_on_second_expert(L, **kwargs):
        calls.append(L.shape)
        return L, (3 if len(calls) == 2 else 0)

    def minimize_then_arm(*args, **kwargs):
        # every nlml inverts its factor too; fail only in the final fits
        result = minimize(*args, **kwargs)
        monkeypatch.setattr(gp, "trtri", dtrtri_failing_on_second_expert)
        return result

    monkeypatch.setattr(ensemble, "minimize", minimize_then_arm)
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(30, 1))
    part = random_partition(30, 3, seed=0)
    with pytest.raises(NumericalBreakdown, match="expert 1: trtri failed") as err:
        train(X, rng.normal(size=30), part, 1)
    assert err.value.expert_index == 1
    assert calls == [(10, 10), (10, 10)]


def test_nlml_reports_a_failed_block_inverse(monkeypatch):
    from gpcommittee import gp
    calls = []

    def dtrtri_failing_on_last_block(L, **kwargs):
        # four experts of 10 rows, one block each; then expert 4's 140 rows
        # split into four base blocks of 35, the top-left one last
        calls.append(L.shape)
        return L, (2 if len(calls) == 8 else 0)

    monkeypatch.setattr(gp, "trtri", dtrtri_failing_on_last_block)
    rng = np.random.default_rng(6)
    part = Partition(subsets=np.split(np.arange(180), [10, 20, 30, 40]),
                     kind=PartitionKind.RANDOM, seed=0)
    with pytest.raises(NumericalBreakdown, match="expert 4: trtri failed") as err:
        factorized_nlml(ExpertBlocks(rng.uniform(size=(180, 1)), rng.normal(size=180), part),
                        hp_1d())
    assert calls == [(10, 10)] * 4 + [(35, 35)] * 4
    assert err.value.expert_index == 4


def test_prepare_grbcm_names_the_expert_whose_schur_ladder_fails(monkeypatch):
    from gpcommittee import gp
    ds, committee = _small_committee(M=4)
    assert committee.partition.communication_index == 0
    calls = []
    factor = gp.potrf

    def dpotrf_failing_after_expert_1(A, **kwargs):
        # expert 1's Schur complement factors at once; expert 2's never does
        calls.append(A.shape)
        L, info = factor(A, **kwargs)
        return L, (info if len(calls) == 1 else 1)

    monkeypatch.setattr(gp, "potrf", dpotrf_failing_after_expert_1)
    # the augmented experts are built where they are predicted
    with pytest.raises(NumericalBreakdown, match="expert 2: Cholesky factorization failed") as err:
        experts_predict(committee, ds.X_test, prepare_grbcm(committee))
    assert err.value.expert_index == 2
    assert err.value.test_index is None
    # the whole ladder ran on expert 2, and expert 3 was never reached
    assert len(calls) == 1 + len(err.value.jitters_tried)
    assert err.value.jitters_tried[0] == 0.0 and len(err.value.jitters_tried) == 10


@pytest.mark.parametrize("bad_X, bad_y, row", [
    pytest.param(True, False, 7, id="inf-in-X"),
    pytest.param(False, True, 12, id="nan-in-y"),
])
def test_train_rejects_non_finite_data_before_any_evaluation(monkeypatch, bad_X, bad_y, row):
    from gpcommittee import gp
    calls = []
    monkeypatch.setattr(gp, "nlml", lambda *args, **kwargs: calls.append(1))
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(30, 1))
    y = rng.normal(size=30)
    if bad_X:
        X[row, 0] = np.inf
        X[row + 3, 0] = np.nan
    if bad_y:
        y[row] = np.nan
        y[row + 3] = np.inf
    with pytest.raises(DataError, match=f"training row {row} is not finite"):
        train(X, y, random_partition(30, 3, seed=0), 5)
    assert calls == []


def test_train_rejects_a_target_count_mismatch():
    rng = np.random.default_rng(5)
    with pytest.raises(DataError, match="X has 30 rows but y has 29 targets"):
        train(rng.uniform(size=(30, 1)), rng.normal(size=29), random_partition(30, 3, seed=0), 5)


def test_train_rejects_non_positive_workers(monkeypatch):
    from gpcommittee import gp
    calls = []
    monkeypatch.setattr(gp, "nlml", lambda *args, **kwargs: calls.append(1))
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        train(rng.uniform(size=(30, 1)), rng.normal(size=30), random_partition(30, 3, seed=0), 5,
              workers=0)
    assert calls == []


def test_train_rejects_a_zero_budget_before_forking(monkeypatch):
    from gpcommittee import ensemble
    forked = []
    monkeypatch.setattr(ensemble, "ExpertBlocks", lambda *args: forked.append(args))
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="max_evals must be >= 1, got 0"):
        train(rng.uniform(size=(30, 1)), rng.normal(size=30), random_partition(30, 3, seed=0), 0,
              workers=3)
    assert forked == []


def test_train_keeps_workers_on_the_ensemble(monkeypatch):
    from gpcommittee import gp
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(30, 1))
    committee = train(X, rng.normal(size=30), random_partition(30, 3, seed=0), 2, workers=3)
    assert committee.workers == 3
    # GRBCM's augmented rows are dealt to the ensemble's workers too
    dealt = []
    fan_out = gp.fan_out

    def recording_fan_out(task, count, workers):
        dealt.append(workers)
        fan_out(task, count, workers)

    monkeypatch.setattr(gp, "fan_out", recording_fan_out)
    experts_predict(committee, X, prepare_grbcm(committee))
    assert dealt == [3]


def test_train_rejects_overlapping_partition_before_any_evaluation(monkeypatch):
    from gpcommittee import gp
    calls = []
    monkeypatch.setattr(gp, "nlml", lambda *args, **kwargs: calls.append(1))
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(30, 1))
    part = random_partition(30, 3, seed=0)
    overlapping = replace(part, subsets=[part.subsets[0], part.subsets[1],
                                         np.concatenate([part.subsets[2], part.subsets[0][:1]])])
    with pytest.raises(InvalidPartition, match="disjoint cover"):
        train(X, rng.normal(size=30), overlapping, 5)
    assert calls == []


def test_train_validates_partition_once(monkeypatch):
    from gpcommittee.partition import Partition
    calls = []
    validate = Partition.validate

    def counting_validate(self, n):
        calls.append(n)
        validate(self, n)

    monkeypatch.setattr(Partition, "validate", counting_validate)
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(30, 1))
    committee = train(X, rng.normal(size=30), random_partition(30, 3, seed=0), 5)
    assert committee.opt_evals > 1
    assert calls == [30]


def _small_committee(n=120, M=3, seed=0, kind="grbcm"):
    ds = toy_generate(n, 40, seed=seed)
    if kind == "grbcm":
        part = grbcm_partition(ds.X_train, M, seed=seed)
    elif kind == "disjoint":
        part = disjoint_partition(ds.X_train, M, seed=seed)
    else:
        part = random_partition(n, M, seed=seed)
    return ds, train(ds.X_train, ds.y_train, part, 30)


@pytest.mark.parametrize("M, kind", [(1, "random"), (2, "grbcm"), (4, "grbcm"), (3, "random")])
def test_prepare_grbcm_returns_the_extensions_and_keeps_the_ensemble(M, kind):
    ds, committee = _small_committee(M=M, kind=kind)
    before = {f.name: getattr(committee, f.name) for f in fields(committee)}
    experts = list(committee.experts)
    arrays = ("X", "y", "chol_inv", "weight_vector")
    stored = [[getattr(m, a).copy() for a in arrays] for m in experts]
    extensions = prepare_grbcm(committee)
    assert isinstance(extensions, list) and len(extensions) == M - 1
    assert all(isinstance(build(), BlockExtension) for build in extensions)
    assert all(getattr(committee, name) is value for name, value in before.items())
    assert all(a is b for a, b in zip(committee.experts, experts, strict=True))
    for model, saved in zip(experts, stored):
        for a, value in zip(arrays, saved):
            np.testing.assert_array_equal(getattr(model, a), value)


def test_prepare_grbcm_two_subsets_uses_all_data():
    ds, committee = _small_committee(M=2)
    extensions = prepare_grbcm(committee)
    assert len(extensions) == 1
    ext = extensions[0]()
    assert ext.cross.shape[1] + ext.X.shape[0] == ds.n_train


def test_prepare_grbcm_sizes():
    ds, committee = _small_committee(n=120, M=3)
    comm_size = committee.partition.subsets[0].size
    for build, idx in zip(prepare_grbcm(committee), committee.partition.subsets[1:]):
        aug = build()
        assert aug.cross.shape[1] + aug.X.shape[0] == comm_size + idx.size


def test_prepare_grbcm_requires_communication_subset():
    ds, committee = _small_committee(kind="disjoint")
    with pytest.raises(MissingCommunicationSubset):
        prepare_grbcm(committee)


def test_augmented_expert_never_less_informative():
    ds, committee = _small_committee(n=150, M=3)
    comm = committee.experts[committee.partition.communication_index]
    Xstar = np.random.default_rng(6).uniform(-1.5, 1.5, size=(30, 1))
    mean_comm, var_comm = predict(comm, Xstar)
    means, variances = experts_predict(committee, Xstar, prepare_grbcm(committee))
    assert variances.shape == (committee.M, Xstar.shape[0])
    np.testing.assert_array_equal(means[0], mean_comm)
    np.testing.assert_array_equal(variances[0], var_comm)
    assert np.all(variances[1:] <= var_comm + 1e-8)


def test_experts_predict_single_expert_matches_full_gp():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(50, 1))
    y = np.sin(5 * X[:, 0]) + 0.2 * rng.normal(size=50)
    part = random_partition(50, 1, seed=0)
    committee = train(X, y, part, 1)
    Xstar = rng.uniform(size=(20, 1))
    means, variances = experts_predict(committee, Xstar)
    full = fit(X, y, committee.hp)
    fm, fv = predict(full, Xstar)
    np.testing.assert_array_equal(means[0], fm)
    np.testing.assert_array_equal(variances[0], fv)


def test_experts_predict_far_recovers_prior():
    ds, committee = _small_committee(M=3)
    means, variances = experts_predict(committee, np.array([[60.0]]))
    prior = committee.hp.prior_variance
    assert np.all(np.abs(means) < 1e-8)
    np.testing.assert_allclose(variances, prior, rtol=1e-10)


def test_shared_hyperparameters_across_experts():
    ds, committee = _small_committee(M=3)
    assert all(m.hp is committee.hp for m in committee.experts)

"""The factorized objective on forked worker processes: bits, failures, lifecycle.

Every test starts at most two worker processes (``workers <= 3``).
"""

import multiprocessing as mp
import os
import pickle
import signal
from types import SimpleNamespace

import numpy as np
import pytest

from gpcommittee import (ExpertBlocks, Hyperparams, InvalidStart, NumericalBreakdown,
                         ensemble, gp, minimize, train)
from gpcommittee.partition import Partition, PartitionKind

START = Hyperparams.default(1)


def uneven_problem(sizes, seed=0):
    """1-D data dealt to experts of the given (distinct) sizes."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    X = rng.uniform(-2, 2, size=(n, 1))
    y = np.sin(2 * X[:, 0]) + 0.2 * rng.normal(size=n)
    subsets = np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
    return X, y, Partition(subsets=subsets, kind=PartitionKind.RANDOM, seed=seed)


def run(problem, workers, max_evals=30):
    X, y, part = problem
    return train(X, y, part, max_evals, workers=workers)


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a.hp.to_vector(), b.hp.to_vector())
    assert a.opt_evals == b.opt_evals
    assert a.opt_trace == b.opt_trace
    assert len(a.experts) == len(b.experts)
    for ea, eb in zip(a.experts, b.experts):
        np.testing.assert_array_equal(ea.chol_inv, eb.chol_inv)


def no_children_left():
    return mp.active_children() == []


def record_objective(monkeypatch):
    """Wrap the objective ``train`` calls; returns (slots, breakdowns) lists."""
    slots, breakdowns = [], []
    objective = ensemble.factorized_nlml

    def recording(blocks, hp):
        slots.append(blocks.slots)
        try:
            return objective(blocks, hp)
        except NumericalBreakdown as exc:
            breakdowns.append((str(exc), exc.expert_index, exc.jitters_tried))
            raise

    monkeypatch.setattr(ensemble, "factorized_nlml", recording)
    return slots, breakdowns


def serial_sum(problem):
    """Training by a plain loop over the experts: the objective adds each
    expert's term in expert order, and each expert is refitted at the end."""
    X, y, part = problem

    def objective(hp):
        value, grad = 0.0, np.zeros(hp.n_params)
        for idx in part.subsets:
            v, g = gp.nlml(X[idx], y[idx], hp)
            value += v
            grad += g
        return value, grad

    # train pins BLAS to one thread, whatever the environment sets
    with gp.blas_threads(1):
        result = minimize(objective, START, 30)
        experts = [gp.fit(X[idx], y[idx], result.best_hp) for idx in part.subsets]
    return SimpleNamespace(hp=result.best_hp, opt_evals=result.evals_used,
                           opt_trace=tuple(result.trace), experts=experts)


@pytest.mark.parametrize("M", [1, 2, 7])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_every_worker_count_gives_the_bits_of_the_serial_sum(monkeypatch, M, workers):
    problem = uneven_problem([12 + 5 * k for k in range(M)])
    slots, _ = record_objective(monkeypatch)
    committee = run(problem, workers)
    assert set(slots) == {min(workers, M)}
    assert committee.workers == workers
    assert_same_bits(committee, serial_sum(problem))
    assert no_children_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_terms_are_one_array_with_each_experts_nlml_as_its_row(workers):
    X, y, part = uneven_problem([12 + 5 * k for k in range(7)])
    hp = Hyperparams(0.3, np.array([-0.4]), -1.2)
    with gp.blas_threads(1):
        with ExpertBlocks(X, y, part, workers) as blocks:
            rows = blocks.terms(hp)
        assert isinstance(rows, np.ndarray) and rows.shape == (7, 1 + hp.n_params)
        for k, idx in enumerate(part.subsets):
            value, grad = gp.nlml(X[idx], y[idx], hp)
            np.testing.assert_array_equal(rows[k], np.concatenate([[value], grad]))
    assert no_children_left()


def test_without_fork_the_objective_runs_in_process(monkeypatch):
    problem = uneven_problem([12, 17, 22, 27])
    forked = run(problem, 2)
    monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
    slots, _ = record_objective(monkeypatch)
    in_process = run(problem, 2)
    assert set(slots) == {1}
    assert_same_bits(in_process, forked)


def test_breakdown_pickles_with_its_attributes():
    exc = NumericalBreakdown("expert 3: ladder ran out", jitters_tried=[0.0, 1e-10],
                             expert_index=3, test_index=7)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is NumericalBreakdown and str(copy) == str(exc)
    assert (copy.jitters_tried, copy.expert_index, copy.test_index) == ([0.0, 1e-10], 3, 7)


def test_a_breakdown_in_a_worker_reaches_the_optimizer_as_in_a_serial_run(monkeypatch):
    # expert 1 (22 rows) belongs to slot 1, a worker, when workers = 2; the
    # first step of the run lowers log_noise below -1.9 and breaks it down
    problem = uneven_problem([17, 22, 27, 12])
    nlml = gp.nlml

    def breaking_nlml(X, y, hp):
        if X.shape[0] == 22 and hp.log_noise < -1.9:
            raise NumericalBreakdown("ladder ran out", jitters_tried=[0.0, 1e-10])
        return nlml(X, y, hp)

    monkeypatch.setattr(gp, "nlml", breaking_nlml)
    _, breakdowns = record_objective(monkeypatch)
    serial = run(problem, 1)
    serial_breakdowns = breakdowns[:]
    breakdowns.clear()
    forked = run(problem, 2)
    forked_breakdowns = breakdowns[:]
    assert serial_breakdowns
    assert serial_breakdowns[0] == ("expert 1: ladder ran out", 1, [0.0, 1e-10])
    assert forked_breakdowns == serial_breakdowns
    assert_same_bits(forked, serial)
    assert no_children_left()


@pytest.mark.parametrize("failing, raised", [
    pytest.param((2, 3), 2, id="calling-process-expert-first"),
    pytest.param((1, 2), 1, id="worker-expert-first"),
])
def test_the_smallest_failing_expert_is_raised(monkeypatch, failing, raised):
    # with 2 workers the calling process owns experts 0 and 2, the worker 1 and 3
    sizes = [12, 17, 22, 27]
    problem = uneven_problem(sizes)
    nlml = gp.nlml

    def failing_nlml(X, y, hp):
        for k in failing:
            if X.shape[0] == sizes[k]:
                raise ValueError(f"block of expert {k}")
        return nlml(X, y, hp)

    monkeypatch.setattr(gp, "nlml", failing_nlml)
    with pytest.raises(ValueError, match=f"^block of expert {raised}$"):
        run(problem, 2)
    assert no_children_left()


def test_workers_evaluate_under_the_callers_floating_point_error_state(monkeypatch):
    # the optimizer evaluates with overflow ignored; expert 1 reports the
    # state it sees, from the calling process (workers = 1) or a worker (2)
    problem = uneven_problem([12, 17, 22])
    nlml = gp.nlml

    def reporting_nlml(X, y, hp):
        if X.shape[0] == 17:
            raise ValueError(repr(sorted(np.geterr().items())))
        return nlml(X, y, hp)

    monkeypatch.setattr(gp, "nlml", reporting_nlml)
    seen = []
    for workers in (1, 2):
        with pytest.raises(ValueError) as err:
            run(problem, workers)
        seen.append(str(err.value))
    assert seen[0] == seen[1]
    assert "('over', 'ignore')" in seen[0]


def test_no_worker_outlives_an_invalid_start(monkeypatch):
    problem = uneven_problem([12, 17, 22])
    nlml = gp.nlml

    def infinite_in_a_worker(X, y, hp):
        value, grad = nlml(X, y, hp)
        return (np.inf if X.shape[0] == 17 else value), grad

    monkeypatch.setattr(gp, "nlml", infinite_in_a_worker)
    with pytest.raises(InvalidStart):
        run(problem, 3)
    assert no_children_left()


def test_a_worker_killed_mid_run_raises_instead_of_hanging(monkeypatch):
    problem = uneven_problem([12, 17, 22, 27])
    nlml = gp.nlml
    parent = os.getpid()

    def dying_after_the_first_evaluation(X, y, hp):
        if os.getpid() != parent and not np.array_equal(hp.to_vector(), START.to_vector()):
            os.kill(os.getpid(), signal.SIGKILL)
        return nlml(X, y, hp)

    monkeypatch.setattr(gp, "nlml", dying_after_the_first_evaluation)
    with pytest.raises(RuntimeError, match=r"training worker 1 stopped \(exit code -9\)"):
        run(problem, 2)
    assert no_children_left()


def test_blocks_hold_each_experts_rows_and_stop_their_workers():
    X, y, part = uneven_problem([12, 17, 22])
    with ExpertBlocks(X, y, part, workers=3) as blocks:
        assert blocks.slots == 3
        assert len(mp.active_children()) == 2
        for (Xi, yi), idx in zip(blocks.blocks, part.subsets):
            np.testing.assert_array_equal(Xi, X[idx])
            np.testing.assert_array_equal(yi, y[idx])
        forked = ensemble.factorized_nlml(blocks, START)
    assert no_children_left()
    serial = ensemble.factorized_nlml(ExpertBlocks(X, y, part), START)
    assert forked[0] == serial[0]
    np.testing.assert_array_equal(forked[1], serial[1])

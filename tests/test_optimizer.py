import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from gpcommittee import ExperimentConfig, Hyperparams, InvalidStart, minimize, nlml
from gpcommittee.kernel import kernel_matrix


def quadratic_about(theta0):
    theta0 = np.asarray(theta0, dtype=float)

    def objective(hp):
        v = hp.to_vector()
        return 0.5 * float(np.sum((v - theta0) ** 2)), v - theta0

    return objective


def test_quadratic_converges():
    theta0 = np.array([0.7, -0.4, 0.2, 1.1])
    result = minimize(quadratic_about(theta0), Hyperparams.default(2), 50)
    assert np.linalg.norm(result.best_hp.to_vector() - theta0, np.inf) < 1e-6
    assert result.evals_used <= 50


def test_budget_one_returns_initial():
    start = Hyperparams.default(1)
    result = minimize(quadratic_about([1.0, 1.0, 1.0]), start, 1)
    np.testing.assert_array_equal(result.best_hp.to_vector(), start.to_vector())
    assert result.evals_used == 1
    assert result.trace == [result.best_value]


def test_trace_non_increasing_and_best_not_worse_than_start():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(40, 1))
    y = np.sin(7 * X[:, 0]) + 0.2 * rng.normal(size=40)
    start = Hyperparams.default(1)
    result = minimize(lambda hp: nlml(X, y, hp), start, 60)
    f0 = nlml(X, y, start)[0]
    assert result.best_value <= f0
    assert all(b <= a for a, b in zip(result.trace, result.trace[1:]))


def test_gp_hyperparameter_recovery_1d():
    # Data sampled from a known GP. On a fixed domain the output scale trades
    # off against the lengthscale and is only weakly identified, so over 100
    # seeds of this design the MLE is within 0.3 on every coordinate in 41%
    # and on the output scale in 52%; the checks below are what an MLE does
    # promise.
    rng = np.random.default_rng(42)
    n = 200
    true = Hyperparams(np.log(1.5), np.array([np.log(0.3)]), np.log(0.3))
    X = rng.uniform(size=(n, 1))
    K = kernel_matrix(X, X, true) + 1e-10 * np.eye(n)
    f = np.linalg.cholesky(K) @ rng.normal(size=n)
    y = f + np.exp(true.log_noise) * rng.normal(size=n)
    start = Hyperparams.default(1)
    result = minimize(lambda hp: nlml(X, y, hp), start, 200)
    theta = result.best_hp.to_vector()

    def value(v):
        return nlml(X, y, Hyperparams.from_vector(v))[0]

    # (a) the MLE: agrees with a gradient-free oracle from the same start
    oracle = scipy.optimize.minimize(value, start.to_vector(), method="Nelder-Mead",
                                     options={"xatol": 1e-8, "fatol": 1e-12,
                                              "maxfev": 5000})
    assert oracle.success
    assert np.max(np.abs(theta - oracle.x)) < 1e-4, f"MLE {theta}, oracle {oracle.x}"
    assert result.best_value == pytest.approx(oracle.fun, rel=1e-8)
    # (b) the truth lies in the 99% likelihood-ratio region, chi2_3(0.99)
    lr = 2.0 * (value(true.to_vector()) - result.best_value)
    assert lr < scipy.stats.chi2.ppf(0.99, df=3), f"likelihood ratio {lr}"
    # (c) the noise is recovered within 0.3 in log-units
    err = np.abs(theta - true.to_vector())
    assert err[-1] < 0.3, f"log-hyperparameter errors {err}"


def test_invalid_start_raises():
    def bad(hp):
        return np.nan, np.zeros(hp.n_params)

    with pytest.raises(InvalidStart):
        minimize(bad, Hyperparams.default(1), 10)


def test_non_finite_midrun_backs_off():
    # The objective is +inf past v0 > 1.5 and smooth below, with its minimum
    # at 1.9 beyond that wall. L-BFGS-B steps from v0 = 0 to 1.0 and then to
    # 1.9, which is +inf; it backs off to the last finite iterate, v0 = 1.0,
    # and stops there instead of crashing.
    evaluated = []

    def objective(hp):
        v = hp.to_vector()
        value = np.inf if v[0] > 1.5 else (v[0] - 1.9) ** 2
        evaluated.append((value, v))
        return value, np.array([2 * (v[0] - 1.9), 0.0, 0.0])

    result = minimize(objective, Hyperparams.default(1), 80)
    assert sum(not np.isfinite(value) for value, _ in evaluated) >= 1
    best_value, best_x = min((e for e in evaluated if np.isfinite(e[0])),
                             key=lambda e: e[0])
    assert result.best_value == best_value < evaluated[0][0]
    np.testing.assert_array_equal(result.best_hp.to_vector(), best_x)


def test_wall_past_the_minimum_is_backed_off_from():
    # The objective is +inf past v0 > 0.5 and smooth below, with its minimum
    # at 0.45 just inside the wall. L-BFGS-B's first step from v0 = 0 lands
    # at 1.0, behind the wall; given +inf there it stopped at the start after
    # two evaluations. Given a finite stand-in it shortens the step and
    # converges.
    evaluated = []

    def objective(hp):
        v = hp.to_vector()
        value = np.inf if v[0] > 0.5 else (v[0] - 0.45) ** 2 + float(v[1:] @ v[1:])
        evaluated.append(value)
        return value, np.concatenate(([2 * (v[0] - 0.45)], 2 * v[1:]))

    start = Hyperparams.from_vector(np.zeros(3))
    result = minimize(objective, start, 80)
    assert sum(not np.isfinite(value) for value in evaluated) >= 1
    np.testing.assert_allclose(result.best_hp.to_vector(), [0.45, 0.0, 0.0], atol=1e-6)
    assert result.best_value == min(v for v in evaluated if np.isfinite(v)) < 1e-12
    assert all(np.isfinite(result.trace))
    assert all(b <= a for a, b in zip(result.trace, result.trace[1:]))


def test_budget_binds_mid_run():
    # Rosenbrock in the first two coordinates needs far more than 7 evaluations;
    # from this start the 7th is a line-search probe worse than the best point
    evaluated = []

    def objective(hp):
        v = hp.to_vector()
        a, b = v[0], v[1]
        value = (1 - a) ** 2 + 100 * (b - a * a) ** 2
        grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a), 0.0])
        evaluated.append((value, v))
        return value, grad

    result = minimize(objective, Hyperparams.from_vector(np.array([0.5, -1.0, 0.0])), 7)
    assert result.evals_used == len(evaluated) == 7
    assert len(result.trace) > 1
    assert all(b <= a for a, b in zip(result.trace, result.trace[1:]))
    best_value, best_x = min(evaluated, key=lambda e: e[0])
    assert result.best_value == best_value
    np.testing.assert_array_equal(result.best_hp.to_vector(), best_x)


def test_already_converged_returns_immediately():
    result = minimize(quadratic_about([0.0, 0.0, -1.0]), Hyperparams.default(1), 50)
    # start is the exact minimizer: gradient 0, single evaluation
    assert result.evals_used == 1
    assert result.best_value == 0.0


def test_config_validation():
    # the budget is checked by the experiment config and by minimize itself
    with pytest.raises(ValueError, match="max_evals must be >= 1, got 0"):
        ExperimentConfig(m0=50, max_evals=0).validate()
    with pytest.raises(ValueError, match="max_evals must be >= 1, got 0"):
        minimize(quadratic_about([1.0, 1.0, 1.0]), Hyperparams.default(1), 0)

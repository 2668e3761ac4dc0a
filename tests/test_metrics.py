import numpy as np
import pytest

from gpcommittee import DataError, msll, smse


def test_smse_perfect_predictions():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert smse(y, y) == 0.0


def test_smse_trivial_mean_predictor_is_exactly_one():
    rng = np.random.default_rng(0)
    y = rng.normal(size=200)
    preds = np.full_like(y, y.mean())
    assert smse(preds, y) == 1.0


def test_smse_constant_shift():
    rng = np.random.default_rng(1)
    y = rng.normal(size=100)
    c = 0.37
    var = float(np.mean((y - y.mean()) ** 2))
    assert smse(y + c, y) == pytest.approx(c ** 2 / var, rel=1e-12)


def test_smse_degenerate_targets():
    with pytest.raises(DataError):
        smse(np.array([0.0, 1.0]), np.array([2.0, 2.0]))


def test_smse_length_checks():
    with pytest.raises(ValueError):
        smse(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        smse(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_msll_trivial_model_is_zero():
    rng = np.random.default_rng(2)
    y = rng.normal(size=150)
    train_mean, train_var = 0.3, 1.7
    value = msll(np.full_like(y, train_mean), np.full_like(y, train_var), y,
                 train_mean, train_var)
    assert abs(value) <= 1e-12


def test_msll_half_variance_closed_form():
    # same means as trivial, half the variance, squared errors averaging
    # exactly train_var: msll = 0.5 * (1 - log 2)
    train_mean, train_var = 0.0, 2.0
    s = np.sqrt(train_var)
    y = np.array([s, -s] * 50)
    preds = np.zeros_like(y)
    variances = np.full_like(y, train_var / 2.0)
    value = msll(preds, variances, y, train_mean, train_var)
    assert value == pytest.approx(0.5 * (1.0 - np.log(2.0)), rel=1e-12)


def test_msll_overconfidence_blows_up():
    y = np.array([1.0, -1.0, 2.0])
    preds = np.zeros(3)
    value = msll(preds, np.full(3, 1e-10), y, 0.0, 1.0)
    assert value > 1e6


def test_msll_rejects_bad_variances():
    y = np.zeros(3)
    with pytest.raises(ValueError):
        msll(y, np.array([1.0, -1.0, 1.0]), y, 0.0, 1.0)
    with pytest.raises(ValueError):
        msll(y, np.ones(3), y, 0.0, 0.0)


def test_msll_unimodal_in_variance():
    # loss is smallest when the variance matches the oracle squared error
    rng = np.random.default_rng(3)
    y = rng.normal(size=400)
    preds = np.zeros_like(y)
    oracle = float(np.mean(y ** 2))
    grid = oracle * np.geomspace(0.1, 10, 41)
    losses = [msll(preds, np.full_like(y, v), y, 0.0, 1.0) for v in grid]
    best = int(np.argmin(losses))
    assert grid[best] == pytest.approx(oracle, rel=0.15)
    # decreasing toward the oracle from both sides
    assert all(a >= b for a, b in zip(losses[:best], losses[1:best + 1]))
    assert all(a <= b for a, b in zip(losses[best:], losses[best + 1:]))

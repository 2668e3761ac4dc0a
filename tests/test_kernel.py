import numpy as np
import pytest

from gpcommittee import Hyperparams, kernel_matrix, kernel_matrix_grads


def se_kernel(x, x_prime, hp):
    """Squared-exponential covariance between two points, the scalar
    reference for :func:`kernel_matrix`.

    ``k(x, x') = output_variance * exp(-0.5 * sum_i (x_i - x'_i)^2 / l_i^2)``
    """
    x = np.asarray(x, dtype=float).ravel()
    x_prime = np.asarray(x_prime, dtype=float).ravel()
    if x.shape[0] != hp.input_dim or x_prime.shape[0] != hp.input_dim:
        raise ValueError("input vectors must match the hyperparameter dimension")
    z = (x - x_prime) / hp.lengthscales
    return hp.output_variance * float(np.exp(-0.5 * np.dot(z, z)))


def hp_1d(log_sf=0.0, log_l=0.0, log_noise=-1.0):
    return Hyperparams(log_sf, np.array([log_l]), log_noise)


def test_zero_distance_unit_scale():
    hp = hp_1d()
    assert se_kernel([0.3], [0.3], hp) == 1.0


def test_unit_distance_1d():
    hp = hp_1d()
    assert se_kernel([0.0], [1.0], hp) == pytest.approx(0.6065306597126334, rel=1e-12)


def test_anisotropic_2d():
    # output scale 2, lengthscales (1, 2), separation (1, 2) -> 4 * exp(-1)
    hp = Hyperparams(np.log(2.0), np.log(np.array([1.0, 2.0])), -1.0)
    val = se_kernel([0.0, 0.0], [1.0, 2.0], hp)
    assert val == pytest.approx(1.4715177646857693, rel=1e-12)


def test_dimension_mismatch_raises():
    hp = hp_1d()
    with pytest.raises(ValueError):
        se_kernel([0.0, 1.0], [0.0, 1.0], hp)
    with pytest.raises(ValueError):
        kernel_matrix(np.zeros((3, 2)), np.zeros((3, 1)), hp)


def test_matrix_single_point():
    hp = Hyperparams(np.log(1.5), np.array([0.0]), -1.0)
    K = kernel_matrix([[0.7]], [[0.7]], hp)
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(1.5 ** 2, rel=1e-14)


def test_matrix_duplicate_rows_degenerate():
    hp = hp_1d(log_sf=np.log(2.0))
    X = np.array([[0.4], [0.4]])
    K = kernel_matrix(X, X, hp)
    assert np.allclose(K, 4.0)
    assert np.linalg.matrix_rank(K) == 1


def test_matrix_two_points():
    hp = hp_1d()
    K = kernel_matrix(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), hp)
    e = np.exp(-0.5)
    np.testing.assert_allclose(K, [[1.0, e], [e, 1.0]], rtol=1e-14)


def test_matrix_entries_match_scalar_kernel():
    rng = np.random.default_rng(0)
    hp = Hyperparams(0.3, rng.normal(size=3) * 0.2, -1.0)
    X = rng.normal(size=(4, 3))
    Z = rng.normal(size=(5, 3))
    K = kernel_matrix(X, Z, hp)
    for i in range(4):
        for j in range(5):
            assert K[i, j] == pytest.approx(se_kernel(X[i], Z[j], hp), rel=1e-12)


def test_symmetry_exact():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 2))
    hp = Hyperparams(0.1, np.array([0.0, -0.3]), -1.0)
    K = kernel_matrix(X, X, hp)
    assert np.array_equal(K, K.T)


def test_positive_semidefinite():
    rng = np.random.default_rng(2)
    for n in (5, 20, 50):
        X = rng.normal(size=(n, 3))
        hp = Hyperparams(0.4, rng.normal(size=3) * 0.3, -1.0)
        eigs = np.linalg.eigvalsh(kernel_matrix(X, X, hp))
        assert eigs.min() >= -1e-10 * hp.output_variance


def test_stationarity_translation():
    rng = np.random.default_rng(3)
    hp = Hyperparams(0.2, rng.normal(size=4) * 0.2, -1.0)
    for _ in range(20):
        x, xp = rng.normal(size=4), rng.normal(size=4)
        shift = rng.normal(size=4)
        a = se_kernel(x, xp, hp)
        b = se_kernel(x + shift, xp + shift, hp)
        assert abs(a - b) <= 1e-15 * max(1.0, abs(a))


def _spd_and_vector(rng, n):
    B = rng.normal(size=(n, n))
    return B @ B.T / n + np.eye(n), rng.normal(size=n)


def test_grad_output_scale_identity():
    # d K / d log_output_scale = 2 K, so entry 0 is <A - a a', K>
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 2))
    hp = Hyperparams(0.3, np.array([-0.2, 0.1]), -1.0)
    K = kernel_matrix(X, X, hp)
    A, a = _spd_and_vector(rng, 6)
    expected = np.sum((A - np.outer(a, a)) * K)
    grads = kernel_matrix_grads(X, hp, K, A.copy(), a)
    assert grads[0] == pytest.approx(expected, rel=1e-12)


def test_grads_reuse_given_kernel_matrix_exactly():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(12, 3))
    hp = Hyperparams(0.3, np.array([-0.2, 0.1, 0.4]), -1.0)
    K = kernel_matrix(X, X, hp)
    K_before = K.copy()
    A, a = _spd_and_vector(rng, 12)
    grads = kernel_matrix_grads(X, hp, K, A, a)
    assert grads.shape == (4,)
    np.testing.assert_array_equal(K, K_before)


def test_grad_lengthscale_single_point_is_zero():
    hp = hp_1d()
    X = np.array([[0.3]])
    K = kernel_matrix(X, X, hp)
    grads = kernel_matrix_grads(X, hp, K, np.array([[2.0]]), np.array([0.5]))
    assert grads[1] == 0.0


def test_grads_match_finite_differences():
    # 0.5 * <A - a a', dK_j> against a central difference of kernel_matrix
    rng = np.random.default_rng(5)
    step = 1e-6
    for d in (1, 2, 3, 8):
        X = rng.normal(size=(7, d))
        vec = np.concatenate(([rng.normal() * 0.3], rng.normal(size=d) * 0.3, [-1.0]))
        hp = Hyperparams.from_vector(vec)
        A, a = _spd_and_vector(rng, 7)
        grads = kernel_matrix_grads(X, hp, kernel_matrix(X, X, hp), A.copy(), a)
        assert grads.shape == (1 + d,)
        for j in range(1 + d):  # kernel coordinates only (no noise)
            plus, minus = vec.copy(), vec.copy()
            plus[j] += step
            minus[j] -= step
            fd = (kernel_matrix(X, X, Hyperparams.from_vector(plus))
                  - kernel_matrix(X, X, Hyperparams.from_vector(minus))) / (2 * step)
            expected = 0.5 * np.sum((A - np.outer(a, a)) * fd)
            assert grads[j] == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_hyperparams_vector_round_trip():
    hp = Hyperparams(0.25, np.array([-0.5, 0.75]), -1.5)
    back = Hyperparams.from_vector(hp.to_vector())
    assert back.log_output_scale == hp.log_output_scale
    np.testing.assert_array_equal(back.log_lengthscales, hp.log_lengthscales)
    assert back.log_noise == hp.log_noise


def test_hyperparams_reject_non_finite():
    with pytest.raises(ValueError):
        Hyperparams(np.inf, np.array([0.0]), -1.0)
    with pytest.raises(ValueError):
        Hyperparams(0.0, np.array([np.nan]), -1.0)

import ctypes
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrmm

from gpcommittee import DataError, Hyperparams, NumericalBreakdown, fit, nlml, predict
from gpcommittee import gp
from gpcommittee.gp import (_triangular_inverse, blas_threads, chol_with_jitter, extend,
                            predict_extended, retain_freed_memory, triangular_product)
from gpcommittee.kernel import kernel_matrix


def hp_1d(log_sf=0.0, log_l=0.0, log_noise=0.0):
    return Hyperparams(log_sf, np.array([log_l]), log_noise)


def test_fit_scalar_example():
    # n=1, X=[0], y=[0], sigma_f=1, sigma_eps=1: C = [2]
    model = fit(np.array([[0.0]]), np.array([0.0]), hp_1d())
    assert model.chol_inv[0, 0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)
    assert model.weight_vector[0] == 0.0
    assert model.jitter_used == 0.0


def test_fit_reconstruction_invariant():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(25, 2))
    y = rng.normal(size=25)
    hp = Hyperparams(0.2, np.array([-0.1, 0.3]), -1.0)
    model = fit(X, y, hp)
    C = (kernel_matrix(X, X, hp)
         + (hp.noise_variance + model.jitter_used) * np.eye(25))
    # L^-1 C L^-T = I exactly when L L' = C
    rel = np.linalg.norm(model.chol_inv @ C @ model.chol_inv.T - np.eye(25)) / np.sqrt(25)
    assert rel <= 1e-8
    residual = np.linalg.norm(C @ model.weight_vector - y)
    assert residual <= 1e-8 * np.linalg.norm(y)


def test_fit_duplicate_point_needs_jitter():
    # effectively zero noise plus a duplicated row: singular without jitter
    hp = hp_1d(log_noise=-50.0)
    X = np.array([[0.5], [0.5], [1.0]])
    y = np.array([1.0, 1.0, 0.0])
    model = fit(X, y, hp)
    assert model.jitter_used > 0.0


def test_fit_rejects_non_finite():
    with pytest.raises(DataError):
        fit(np.array([[np.nan]]), np.array([0.0]), hp_1d())


def test_nlml_scalar_example():
    value, _ = nlml(np.array([[0.0]]), np.array([0.0]), hp_1d())
    assert value == pytest.approx(1.2655121234846454, rel=1e-12)


def test_nlml_zero_targets_complexity_only():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(8, 1))
    hp = hp_1d(log_noise=-0.5)
    value, _ = nlml(X, np.zeros(8), hp)
    model = fit(X, np.zeros(8), hp)
    # log det L = -log det L^-1
    expected = -float(np.sum(np.log(np.diag(model.chol_inv)))) + 4.0 * np.log(2 * np.pi)
    assert value == pytest.approx(expected, rel=1e-12)


def test_nlml_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    step = 1e-6
    for _ in range(5):
        n = int(rng.integers(3, 21))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        vec = np.concatenate(([rng.normal() * 0.3], rng.normal(size=d) * 0.3,
                              [-0.5 + rng.normal() * 0.2]))
        _, grad = nlml(X, y, Hyperparams.from_vector(vec))
        fd = np.empty_like(grad)
        for j in range(vec.size):
            plus, minus = vec.copy(), vec.copy()
            plus[j] += step
            minus[j] -= step
            fd[j] = (nlml(X, y, Hyperparams.from_vector(plus))[0]
                     - nlml(X, y, Hyperparams.from_vector(minus))[0]) / (2 * step)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


def test_predict_near_interpolation():
    # Tiny noise makes the mean interpolate the targets only where the
    # smallest eigenvalue of K dominates the noise: each eigen-component of
    # y is shrunk by noise/(lambda + noise). At lengthscale 0.2 on these 10
    # points lambda_min(K) = 6.7e-5 >> 1e-16, so every residual is at most
    # about 1.5e-12 * |y|. At lengthscale 1, lambda_min(K) falls below the
    # noise (and below zero in float64), and even the exact GP misses.
    rng = np.random.default_rng(3)
    X = np.linspace(0, 1, 10)[:, None]
    y = rng.normal(size=10)
    hp = hp_1d(log_l=np.log(0.2), log_noise=np.log(1e-8))
    model = fit(X, y, hp)
    assert model.jitter_used == 0.0
    means, _ = predict(model, X)
    assert np.max(np.abs(means - y)) < 1e-4


def test_predict_far_from_data_recovers_prior():
    hp = Hyperparams(np.log(1.3), np.array([0.0]), np.log(0.4))
    X = np.linspace(0, 1, 12)[:, None]
    y = np.sin(3 * X[:, 0])
    model = fit(X, y, hp)
    means, variances = predict(model, np.array([[50.0]]))
    # kernel values below 1e-12 at this distance
    assert abs(means[0]) < 1e-9
    assert variances[0] == pytest.approx(hp.output_variance + hp.noise_variance, rel=1e-10)


def test_predict_scalar_example():
    # n=1, X=[0], y=[1], x*=[1], sigma_f=l=sigma_eps=1
    model = fit(np.array([[0.0]]), np.array([1.0]), hp_1d())
    means, variances = predict(model, np.array([[1.0]]))
    assert means[0] == pytest.approx(0.3032653298563167, rel=1e-12)
    assert variances[0] == pytest.approx(1.8160602794142788, rel=1e-12)


def test_predict_training_set_variance_at_least_noise():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(40, 1))
    y = rng.normal(size=40)
    hp = hp_1d(log_noise=-1.0)
    model = fit(X, y, hp)
    _, variances = predict(model, X)
    assert np.all(variances >= hp.noise_variance * (1 - 1e-10))


def test_predict_requires_model():
    with pytest.raises(ValueError):
        predict("not a model", np.array([[0.0]]))


def test_information_monotonicity_nested_data():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(60, 1))
    y = np.sin(6 * X[:, 0]) + 0.1 * rng.normal(size=60)
    hp = hp_1d(log_noise=-1.5)
    small = fit(X[:30], y[:30], hp)
    big = fit(X, y, hp)
    Xstar = rng.uniform(-0.2, 1.2, size=(25, 1))
    _, var_small = predict(small, Xstar)
    _, var_big = predict(big, Xstar)
    assert np.all(var_big <= var_small + 1e-8)


def test_numerical_breakdown_carries_ladder():
    from gpcommittee.gp import chol_with_jitter
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite at any small jitter
    with pytest.raises(NumericalBreakdown) as err:
        chol_with_jitter(bad)
    assert len(err.value.jitters_tried) > 1
    assert err.value.jitters_tried[0] == 0.0


def _nlml_reference(X, y, hp, jitter=0.0):
    # R&W (2006) eq. 5.9 written out with an explicit inverse and every
    # derivative matrix built from its definition: 2K, and K * D_j with D_j
    # the squared differences of coordinate j over its lengthscale
    n = y.size
    K = kernel_matrix(X, X, hp)
    C = K + (hp.noise_variance + jitter) * np.eye(n)
    Cinv = np.linalg.inv(C)
    a = Cinv @ y
    A = Cinv - np.outer(a, a)
    value = 0.5 * y @ a + 0.5 * np.linalg.slogdet(C)[1] + 0.5 * n * np.log(2 * np.pi)
    dKs = [2.0 * K]
    for z in (X / hp.lengthscales).T:
        dKs.append(K * (z[:, None] - z[None, :]) ** 2)
    grads = [0.5 * np.sum(A * dK) for dK in dKs]
    grads.append(hp.noise_variance * np.trace(A))
    return value, np.array(grads), np.linalg.cond(C)


@pytest.mark.parametrize("n, d, log_l, shift", [
    pytest.param(250, 1, -2.0, 0.0, id="250-1--2.0"),
    pytest.param(150, 8, 0.5, 0.0, id="150-8-0.5"),
    # inputs far from the origin: the contracted gradient must centre them
    pytest.param(250, 1, -2.0, 500.0, id="250-1--2.0-shift500"),
])
def test_nlml_matches_explicit_inverse_reference(n, d, log_l, shift):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(n, d))
    y = np.sin(3 * X[:, 0]) + 0.3 * rng.normal(size=n)
    hp = Hyperparams(0.1, log_l + 0.1 * rng.normal(size=d), -1.2)
    X = X + shift
    value, grad = nlml(X, y, hp)
    ref_value, ref_grad, _ = _nlml_reference(X, y, hp)
    assert value == pytest.approx(ref_value, rel=1e-10)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-10)


def test_nlml_matches_reference_when_jitter_fires():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(40, 1))
    X = np.vstack([X, X[:5]])
    y = np.sin(6 * X[:, 0])
    hp = hp_1d(log_l=-1.0, log_noise=-50.0)
    C = kernel_matrix(X, X, hp) + hp.noise_variance * np.eye(45)
    _, jitter = chol_with_jitter(C)
    assert jitter > 0.0
    value, grad = nlml(X, y, hp)
    ref_value, ref_grad, cond = _nlml_reference(X, y, hp, jitter)
    # the jittered system has cond ~ 1e11, so two float64 evaluations can
    # agree only to the forward-error bound cond * eps, not to 1e-10
    tol = cond * np.finfo(float).eps
    assert abs(value - ref_value) <= tol * abs(ref_value)
    assert np.linalg.norm(grad - ref_grad) <= tol * np.linalg.norm(ref_grad)


def test_cholesky_factor_is_exactly_lower_triangular():
    # the blocked inverse and nlml's symmetrisation of lauum's lower
    # triangle rely on exact zeros above the diagonal
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 2))
    hp = Hyperparams(0.0, np.zeros(2), -1.0)
    K = kernel_matrix(X, X, hp)
    X_dup = np.vstack([X, X[:3]])
    dup = kernel_matrix(X_dup, X_dup, hp)  # singular: the ladder must fire
    for A, fired in ((K + 0.1 * np.eye(30), False), (dup, True)):
        L, jitter = chol_with_jitter(A)
        assert (jitter > 0.0) == fired
        assert np.all(np.triu(L, 1) == 0.0)
        np.testing.assert_allclose(L @ L.T, A + jitter * np.eye(A.shape[0]),
                                   rtol=0, atol=1e-12)


def test_nlml_builds_kernel_once_and_solves_only_vectors(monkeypatch):
    from gpcommittee import gp, kernel
    builds = []
    solve_rhs = []
    kernel_matrix_orig = kernel.kernel_matrix
    cho_solve_orig = gp.cho_solve

    def counting_kernel_matrix(*args, **kwargs):
        builds.append(1)
        return kernel_matrix_orig(*args, **kwargs)

    def counting_cho_solve(c_and_lower, b, *args, **kwargs):
        solve_rhs.append(np.ndim(b))
        return cho_solve_orig(c_and_lower, b, *args, **kwargs)

    # the gradient code looks kernel_matrix up in its own module
    monkeypatch.setattr(gp, "kernel_matrix", counting_kernel_matrix)
    monkeypatch.setattr(kernel, "kernel_matrix", counting_kernel_matrix)
    monkeypatch.setattr(gp, "cho_solve", counting_cho_solve)
    rng = np.random.default_rng(9)
    X = rng.normal(size=(20, 3))
    gp.nlml(X, rng.normal(size=20), Hyperparams(0.0, np.zeros(3), -1.0))
    assert len(builds) == 1
    assert solve_rhs and all(ndim == 1 for ndim in solve_rhs)


def _jittered_or_clean(jittered, rng, n=None):
    # n rows (40 clean, 45 jittered by default); duplicated rows under
    # negligible noise make the noisy matrix singular
    if not jittered:
        X = rng.uniform(size=(n or 40, 1))
        return X, hp_1d(log_l=-1.0, log_noise=-1.0)
    X = rng.uniform(size=((n or 45) - 5, 1))
    return np.vstack([X, X[:5]]), hp_1d(log_l=-1.0, log_noise=-50.0)


def _noisy_factor(X, hp):
    C = kernel_matrix(X, X, hp)
    C.flat[:: X.shape[0] + 1] += hp.noise_variance
    return chol_with_jitter(C)


# 64 rows and fewer are one trtri call; more recurse through the trsm join
@pytest.mark.parametrize("jittered, n", [
    pytest.param(False, None, id="False"),
    pytest.param(True, None, id="True"),
    *(pytest.param(jittered, n, id=f"{'dup' if jittered else 'clean'}-{n}")
      for n in (45, 65, 140, 270) for jittered in (False, True) if (jittered, n) != (True, 45)),
])
def test_chol_inv_is_the_lower_triangular_inverse(jittered, n):
    X, hp = _jittered_or_clean(jittered, np.random.default_rng(10), n)
    model = fit(X, np.sin(6 * X[:, 0]), hp)
    assert (model.jitter_used > 0.0) == jittered
    assert np.all(np.triu(model.chol_inv, 1) == 0.0)
    # fit factors the same matrix with the same ladder
    L, jitter = _noisy_factor(X, hp)
    assert jitter == model.jitter_used
    # trtri's residual bound: n * eps * cond(L)
    n = X.shape[0]
    tol = n * np.finfo(float).eps * np.linalg.cond(L)
    assert np.max(np.abs(model.chol_inv @ L - np.eye(n))) <= tol


@pytest.mark.parametrize("n", [65, 140, 270])
def test_blocked_inverse_keeps_the_trtri_bound_on_jittered_factors(n):
    # joining the halves by products alone (-W22 L21 W11) exceeds this bound
    # by up to 12x on seeds 6 and 9; the trsm join stays below 1% of it
    for seed in range(10):
        X, hp = _jittered_or_clean(True, np.random.default_rng(seed), n)
        L, jitter = _noisy_factor(X, hp)
        assert jitter > 0.0
        L_inv = _triangular_inverse(L.copy(order="F"))
        tol = n * np.finfo(float).eps * np.linalg.cond(L)
        assert np.max(np.abs(L_inv @ L - np.eye(n))) <= tol


@pytest.mark.parametrize("jittered", [False, True])
def test_predict_matches_triangular_solve_reference(jittered):
    rng = np.random.default_rng(11)
    X, hp = _jittered_or_clean(jittered, rng)
    model = fit(X, np.sin(6 * X[:, 0]), hp)
    assert (model.jitter_used > 0.0) == jittered
    Xstar = rng.uniform(-0.5, 1.5, size=(30, 1))
    means, variances = predict(model, Xstar)
    Kstar = kernel_matrix(X, Xstar, hp)
    V = solve_triangular(_noisy_factor(X, hp)[0], Kstar, lower=True)
    prior = hp.output_variance + hp.noise_variance
    ref = np.maximum(prior - np.sum(V * V, axis=0), hp.noise_variance * (1 - 1e-10))
    np.testing.assert_array_equal(means, Kstar.T @ model.weight_vector)
    if not jittered:
        np.testing.assert_allclose(variances, ref, rtol=1e-12)
        return
    # near the data the variance is the jitter left after cancelling the
    # prior, so the two products agree to cond(C) * eps of the prior
    C = kernel_matrix(X, X, hp) + (hp.noise_variance + model.jitter_used) * np.eye(X.shape[0])
    assert np.max(np.abs(variances - ref)) <= np.linalg.cond(C) * np.finfo(float).eps * prior


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("rows, cols", [(1, 1), (65, 3), (100, 2000)])
def test_triangular_product_equals_scipy_dtrmm(rows, cols, transpose):
    # the same BLAS routine as scipy's f2py wrapper, reached through its
    # cython_blas pointer: the same bits
    rng = np.random.default_rng(rows + cols)
    W = np.asfortranarray(np.tril(rng.normal(size=(rows, rows))))
    W[np.triu_indices(rows, 1)] = np.nan  # only the lower triangle may be read
    B = rng.normal(size=(rows, cols))
    want = dtrmm(1.0, W, B.copy().T, side=1, lower=1, trans_a=0 if transpose else 1).T
    got = B.copy()
    assert triangular_product(W, got, transpose=transpose) is got
    np.testing.assert_array_equal(got, want)
    # predict's column sums of squares, formed without the squares: the same
    # bits as adding the squares row by row
    np.testing.assert_array_equal(np.einsum("ij,ij->j", got, got), np.sum(got * got, axis=0))
    # operands of another layout or type are copied, with the same result
    np.testing.assert_array_equal(
        triangular_product(np.ascontiguousarray(W), np.asfortranarray(B), transpose), want)
    with pytest.raises(ValueError, match="cannot multiply"):
        triangular_product(W, np.ones((rows + 1, cols)))


_BLAS_THREADS_PROBE = """
import json
from gpcommittee.gp import _openblas_thread_controls, blas_threads
def counts():
    return [get() for _, get, _ in _openblas_thread_controls()]
before = counts()
with blas_threads(1) as paths:
    inside = counts()
print(json.dumps({"paths": list(paths), "before": before, "inside": inside,
                  "after": counts()}))
"""


def test_blas_threads_pins_and_restores_the_openblas_thread_counts():
    # a fresh interpreter with no thread count in the environment, so
    # OpenBLAS starts at its own default
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(gp.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _BLAS_THREADS_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    counts = json.loads(out.stdout)
    if not counts["paths"]:
        pytest.skip("no scipy-openblas build with thread functions is loaded")
    assert counts["inside"] == [1] * len(counts["paths"])
    assert counts["after"] == counts["before"]
    assert all(n >= 1 for n in counts["before"])


def test_blas_threads_without_openblas_changes_nothing(monkeypatch):
    monkeypatch.setattr(gp, "_openblas_thread_controls", lambda: ())
    with blas_threads(1) as paths:
        assert paths == ()


def _block(kind, rng):
    if kind == "spread":
        return np.arange(0.0, 10.0)[:, None] + rng.uniform(0.0, 0.1, size=(10, 1))
    if kind == "long":  # 70 correlated rows past the spread block, cond(C) ~ 800
        return 10.0 + 0.3 * np.arange(70.0)[:, None] + rng.uniform(0.0, 0.03, size=(70, 1))
    dense = rng.uniform(size=(20, 1))
    return np.vstack([dense, dense[:5]])


@pytest.mark.parametrize("base_kind, ext_kind", [
    ("spread", "spread"),   # no jitter
    ("dup", "spread"),      # the base block needs jitter
    ("spread", "dup"),      # only the Schur complement needs jitter
    ("spread", "long"),     # a Schur block of more than 64 rows
])
def test_block_extension_equals_dense_gp_with_block_jitter(base_kind, ext_kind):
    rng = np.random.default_rng(12)
    Xb, Xe = _block(base_kind, rng), _block(ext_kind, rng)
    X = np.vstack([Xb, Xe])
    y = np.sin(6 * X[:, 0])
    hp = hp_1d(log_l=-1.0, log_noise=-50.0)
    nb = Xb.shape[0]
    base = fit(Xb, y[:nb], hp)
    ext = extend(base, Xe, y[nb:])
    assert (base.jitter_used > 0.0) == (base_kind == "dup")
    assert (ext.jitter_used > 0.0) == (ext_kind == "dup")
    assert ext.n == X.shape[0]
    Xstar = np.linspace(-1.0, max(11.0, X.max() + 1.0), 60)[:, None]
    means, variances = predict_extended(base, [ext], Xstar)
    base_means, base_vars = predict(base, Xstar)
    np.testing.assert_array_equal(means[0], base_means)
    np.testing.assert_array_equal(variances[0], base_vars)

    jitter = np.concatenate([np.full(nb, base.jitter_used), np.full(Xe.shape[0], ext.jitter_used)])
    C = kernel_matrix(X, X, hp) + np.diag(hp.noise_variance + jitter)
    Kstar = kernel_matrix(X, Xstar, hp)
    prior = hp.output_variance + hp.noise_variance
    ref_means = Kstar.T @ np.linalg.solve(C, y)
    ref_vars = np.maximum(prior - np.sum(Kstar * np.linalg.solve(C, Kstar), axis=0),
                          hp.noise_variance * (1 - 1e-10))
    tol = np.linalg.cond(C) * np.finfo(float).eps
    assert np.max(np.abs(means[1] - ref_means)) <= tol * np.max(np.abs(ref_means))
    assert np.max(np.abs(variances[1] - ref_vars)) <= tol * prior


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def test_retain_freed_memory_serves_large_arrays_from_the_heap():
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):
        pytest.skip("mallinfo2 needs glibc >= 2.33")
    libc.mallinfo2.restype = _Mallinfo2
    retain_freed_memory()
    mapped = libc.mallinfo2().hblkhd
    block = np.ones((1000, 1000))  # 8 MB: above glibc's default mmap threshold
    assert libc.mallinfo2().hblkhd == mapped
    del block


_ARENA_PROBE = """
import ctypes, threading
import numpy as np
from gpcommittee.gp import retain_freed_memory

retain_freed_memory()
# a new thread's first allocation takes an arena; with the cap it is the main one
thread = threading.Thread(target=lambda: np.ones((500, 500)).sum())
thread.start()
thread.join()
# one "Arena <k>:" block per arena, on standard error
ctypes.CDLL(None).malloc_stats()
"""


def test_retain_freed_memory_keeps_new_threads_on_the_main_heap():
    # a fresh interpreter, where no thread but the main one has allocated
    libc = ctypes.CDLL(None)
    if not (hasattr(libc, "mallopt") and hasattr(libc, "malloc_stats")):
        pytest.skip("needs glibc's mallopt and malloc_stats")
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.dirname(os.path.dirname(gp.__file__)) + os.pathsep
                         + env.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", _ARENA_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    arenas = [line for line in out.stderr.splitlines() if line.startswith("Arena ")]
    assert arenas == ["Arena 0:"]

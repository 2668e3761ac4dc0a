"""Exact GP regression on a single data block, and its extension by a second block.

Fitting factorizes the noisy kernel matrix once with an escalating jitter
ladder (LAPACK ``potrf``) and inverts the factor once. Prediction then needs
one triangular matrix product, ``V = L^-1 K*``, so nothing is solved per test
point or per right-hand side. Every product with a stored factor inverse goes
through :func:`triangular_product`, BLAS ``trmm`` in place on the right-hand
block, which does half the flops of a full ``gemm``.

Per-expert prediction loops run on the committee's ``workers`` threads
(:func:`fan_out`), so every call inside them must release the interpreter
lock. numpy's products, ``cdist`` and ``exp`` do. scipy's f2py wrapper of
``dtrmm`` does not, so :func:`triangular_product` calls the same BLAS
routine through the function pointer that ``scipy.linalg.cython_blas``
exports, as a ``ctypes`` foreign function, and ctypes releases the lock for
the call. Training's :func:`nlml` terms run on the same number of slots as
forked processes instead (``ensemble.ExpertBlocks``): its LAPACK wrappers
hold the lock, and its ``cdist`` and ``exp`` on expert-sized blocks do not
scale across threads. Threads and processes alike assume BLAS runs on one
thread; :func:`blas_threads` pins it there for training and prediction.

Every factor inverse in the module comes from :func:`_triangular_inverse`.
Blocks of at most 64 rows go to LAPACK ``trtri``. A larger factor is split
in half, both diagonal blocks are inverted recursively, and the off-diagonal
block is joined by LAPACK's own block step ``W21 = -(W22 L21) L11^-1``: one
matrix product, then one triangular solve (``trsm``) against the original
diagonal block. Most of the work then runs in ``gemm``, several times
faster than unblocked ``trtri`` at expert sizes. The join keeps the solve
because the all-product join ``-W22 L21 W11``, though faster, is less
accurate: on jittered factors its residual ``|W L - I|`` exceeds
``trtri``'s ``n eps cond(L)`` bound, while the solve's stays within 1% of it.

A fitted model extends to its own rows plus a second block without
refactoring its own block (:func:`extend`): the joint factor is
``[[L_b, 0], [B, S]]`` with ``B = K_xb L_b^-T`` and ``S`` the Cholesky factor
of the Schur complement ``C_xx - B B'``. The base block keeps the jitter it
was fitted with, and the jitter ladder runs on the Schur complement only, so
the extended model is the GP whose noisy matrix carries the block-diagonal
jitter ``diag(j_b I, j_s I)``.

The marginal likelihood, evaluated once per expert per optimizer step, is
the hot path. Each evaluation builds the kernel matrix ``K`` once, adds the
noise to the diagonal of a copy to get ``C``, factors ``C = L L'`` with
``potrf`` and forms ``C^-1 = L^-T L^-1`` from the factor inverse with
LAPACK ``lauum``. The noise gradient is read off ``C^-1``; then
:func:`kernel.kernel_matrix_grads` multiplies ``C^-1`` by the same ``K``
in place and contracts all kernel coordinates at once through
``(K * C^-1) [1, Z]``, so no derivative matrix and no ``C^-1 - a a'`` is
formed (see :func:`nlml`). Its few ``m x m`` temporaries are freed and
allocated again on every evaluation, so training first fixes glibc's heap
thresholds and keeps every thread on one heap (see :func:`retain_freed_memory`).

Failures here carry no committee index; the caller that knows the expert or
test point adds it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.linalg import cho_solve, cython_blas
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dlauum, dpotrf, dtrtri

from .errors import DataError, NumericalBreakdown
from .kernel import Hyperparams, kernel_matrix, kernel_matrix_grads

# Jitter ladder: 0, then 1e-10 * mean(diag), escalating by 10x up to 1e-2 * mean(diag).
_JITTER_START = 1e-10
_JITTER_STOP = 1e-2
_VARIANCE_GUARD = 1.0 - 1e-10
# factors of at most this many rows are inverted by LAPACK trtri in one call
_INVERSE_BLOCK = 64
# glibc mallopt parameters (malloc.h) and the largest block the heap keeps
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_RETAINED_BLOCK_BYTES = 32 << 20


def retain_freed_memory() -> None:
    """Let the C heap keep freed blocks of up to 32 MiB for reuse, on one
    heap for every thread (glibc only).

    By default glibc serves blocks above a dynamic threshold by fresh
    ``mmap`` and returns a heap top above twice that threshold to the system
    on ``free``; the threshold only rises when a larger mapped block is
    freed. An objective evaluation allocates and frees several ``m x m``
    arrays, more than twice the largest block freed before unless an earlier
    stage happened to free a bigger one, so every evaluation faults its pages
    in again. Fixing both thresholds, for the whole process, makes the reuse
    independent of what ran before.

    A retained block is reused only by the heap (arena) that freed it, and
    glibc gives each new thread an arena of its own. The prediction threads
    of :func:`fan_out` are new on every call, so each would keep up to
    32 MiB of freed blocks in a fresh arena that no later thread reuses; one
    arena for the whole process makes every thread reuse the same freed
    blocks. Nothing happens where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    # setting either value freezes both, so the trim threshold follows only
    # a mmap threshold that was accepted
    if mallopt(_M_MMAP_THRESHOLD, _RETAINED_BLOCK_BYTES):
        mallopt(_M_TRIM_THRESHOLD, 2 * _RETAINED_BLOCK_BYTES)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """``(path, get, set)`` for each scipy-openblas build that numpy and scipy load.

    The wheels of both packages bundle their own OpenBLAS under
    ``<package>.libs``; opening the file again returns the loaded library.
    A build without the ``scipy_openblas`` thread functions (another BLAS,
    or an older wheel) is left out.
    """
    controls = []
    for package in (np, scipy):
        site = os.path.dirname(os.path.dirname(os.path.abspath(package.__file__)))
        libs = os.path.join(site, package.__name__ + ".libs")
        names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
        for name in names:
            if not name.startswith("libscipy_openblas"):
                continue
            path = os.path.join(libs, name)
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = (), ctypes.c_int
                    set_.argtypes, set_.restype = (ctypes.c_int,), None
                    controls.append((path, get, set_))
                    break
    return tuple(controls)


@contextlib.contextmanager
def blas_threads(count: int):
    """Run the block with numpy's and scipy's OpenBLAS on ``count`` threads,
    and restore each library's previous count on exit.

    Yields the paths of the libraries it set. Where none is found (another
    BLAS, or a build without the ``scipy_openblas`` thread functions) it
    yields an empty tuple and changes nothing. The setting is process-wide,
    so blocks entered from several threads at once must not overlap.
    """
    controls = _openblas_thread_controls()
    previous = [get() for _, get, _ in controls]
    for _, _, set_ in controls:
        set_(count)
    try:
        yield tuple(path for path, _, _ in controls)
    finally:
        for (_, _, set_), n in zip(controls, previous):
            set_(n)


def fan_out(task, count: int, workers: int) -> None:
    """Run ``task(slot, k)`` for every ``k`` in ``range(count)``, dealt
    round-robin to ``slots = min(workers, count)`` threads.

    Slot ``s`` runs ``k = s, s + slots, ...`` in that order, so a task may
    keep per-slot scratch space indexed by ``slot``; each ``k`` must write
    only its own outputs. With one slot the tasks run on the calling thread
    and no thread starts; otherwise the calling thread waits for all slots.
    A slot stops at its first exception. Once every thread has stopped, the
    exception of the smallest failing ``k`` is raised, the one a serial loop
    would have raised.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    slots = min(workers, count)
    if slots <= 1:
        for k in range(count):
            task(0, k)
        return
    failures = [None] * slots

    def run(slot):
        for k in range(slot, count, slots):
            try:
                task(slot, k)
            except BaseException as exc:
                failures[slot] = (k, exc)
                return

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(slots)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    raised = [failure for failure in failures if failure is not None]
    if raised:
        raise min(raised, key=lambda failure: failure[0])[1]


def chol_with_jitter(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``A + jitter*I``, escalating jitter on failure.

    The factorization reads only the lower triangle of ``A``. Returns
    (L, jitter_used), where ``L`` is Fortran-ordered with exact zeros above
    the diagonal. Raises :class:`NumericalBreakdown` with the attempted
    ladder if the largest jitter still fails.
    """
    if not np.all(np.isfinite(A)):
        raise NumericalBreakdown("matrix contains non-finite entries")
    scale = float(np.mean(np.diag(A)))
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    jitters = [0.0]
    j = _JITTER_START * scale
    while j <= _JITTER_STOP * scale * (1.0 + 1e-12):
        jitters.append(j)
        j *= 10.0
    for jitter in jitters:
        if jitter == 0.0:
            A_jit = A
        else:
            A_jit = np.array(A, dtype=float)
            A_jit.flat[:: A.shape[0] + 1] += jitter
        L, info = dpotrf(A_jit, lower=1, clean=1)
        if info == 0:
            return L, jitter
    raise NumericalBreakdown(
        f"Cholesky factorization failed after jitter ladder up to {jitters[-1]:.3e}",
        jitters_tried=jitters)


def _triangular_inverse(L: np.ndarray) -> np.ndarray:
    """``L^-1`` of a lower Cholesky factor, overwriting ``L`` and returning it.

    ``L`` must have exact zeros above the diagonal, as :func:`chol_with_jitter`
    leaves them; they are the zeros of the result. Blocks of at most 64 rows
    go to LAPACK ``trtri``. A larger block ``[[L11, 0], [L21, L22]]`` is split
    in half: ``L22`` is inverted first, then ``W21 = -(W22 L21) L11^-1`` is one
    product and one ``trsm`` against ``L11`` (LAPACK's own block step, which
    keeps ``trtri``'s residual bound), and ``L11`` is inverted last.
    """
    n = L.shape[0]
    if n <= _INVERSE_BLOCK:
        L[...], info = dtrtri(L, lower=1, overwrite_c=1)
        if info != 0:
            raise NumericalBreakdown(f"trtri failed to invert the Cholesky factor (info={info})")
        return L
    k = n // 2
    _triangular_inverse(L[k:, k:])
    product = L[k:, k:] @ L[k:, :k]
    # the right-side solve X L11 = -W22 L21, written as its transpose
    # L11' X' = -(W22 L21)', whose right-hand side is a Fortran-ordered view
    L[k:, :k] = dtrsm(-1.0, L[:k, :k], product.T, lower=1, trans_a=1, overwrite_b=1).T
    _triangular_inverse(L[:k, :k])
    return L


def _cython_blas(name: str, *argtypes):
    """scipy's BLAS routine ``name`` as a ctypes foreign function.

    ``scipy.linalg.cython_blas`` exports each routine's address in a capsule
    named by its C signature; ctypes releases the interpreter lock for every
    call of a ``CFUNCTYPE`` function.
    """
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsule = cython_blas.__pyx_capi__[name]
    address = capsule_pointer(capsule, capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


_FLAG = ctypes.c_char_p
_INT = ctypes.POINTER(ctypes.c_int)
_dtrmm = _cython_blas("dtrmm", _FLAG, _FLAG, _FLAG, _FLAG, _INT, _INT,
                      ctypes.POINTER(ctypes.c_double), ctypes.c_void_p, _INT,
                      ctypes.c_void_p, _INT)
_ONE = ctypes.c_double(1.0)


def _operand(a, order: str) -> np.ndarray:
    """``a`` itself if it is a writable float64 array laid out in ``order``
    (``"C"`` or ``"F"``), else such a copy of it."""
    if (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.writeable
            and a.flags["C_CONTIGUOUS" if order == "C" else "F_CONTIGUOUS"]):
        return a
    return np.array(a, dtype=np.float64, order=order)


def triangular_product(W: np.ndarray, B: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``W @ B``, or ``W' @ B``, for a lower-triangular ``W``, overwriting ``B``.

    ``W`` is a stored factor inverse (Fortran-ordered, as
    :func:`_triangular_inverse` leaves it) and ``B`` a C-ordered block that
    the caller owns; BLAS ``trmm`` reads only ``W``'s lower triangle. The
    product is taken as its transpose ``B' W'`` (or ``B' W``), whose
    right-hand side ``B'`` is a Fortran-ordered view, so ``B`` is overwritten
    in place and returned with nothing copied. An operand of another layout
    or type is copied first, and then the copy of ``B`` is returned. The call
    releases the interpreter lock (see the module docstring).
    """
    W = _operand(W, "F")
    B = _operand(B, "C")
    n, k = B.shape
    if W.shape != (n, n):
        raise ValueError(f"a {W.shape} factor cannot multiply {n} rows")
    if B.size:
        # from_buffer hands BLAS each array's own memory; W' is a C-ordered view
        _dtrmm(b"R", b"L", b"N" if transpose else b"T", b"N", ctypes.c_int(k),
               ctypes.c_int(n), _ONE, ctypes.byref(ctypes.c_char.from_buffer(W.T)),
               ctypes.c_int(n), ctypes.byref(ctypes.c_char.from_buffer(B)), ctypes.c_int(k))
    return B


def _noisy_variance(hp: Hyperparams, explained: np.ndarray) -> np.ndarray:
    """Prior variance minus the ``explained`` part, clamped at ``noise_variance * (1 - 1e-10)``."""
    variances = hp.output_variance - explained + hp.noise_variance
    return np.maximum(variances, hp.noise_variance * _VARIANCE_GUARD)


@dataclass(frozen=True)
class GPModel:
    """One trained GP expert: data view, inverse Cholesky factor and weight vector.

    ``chol_inv`` is the lower-triangular inverse ``L^-1`` of the Cholesky
    factor ``L L' = K + (noise_variance + jitter_used) * I`` (see
    :func:`_triangular_inverse`); it turns every prediction into matrix
    products. ``weight_vector`` solves that system against ``y``. ``L``
    itself is not kept.
    """

    X: np.ndarray
    y: np.ndarray
    hp: Hyperparams
    chol_inv: np.ndarray
    weight_vector: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.X.shape[0]


def fit(X: np.ndarray, y: np.ndarray, hp: Hyperparams) -> GPModel:
    """Fit an exact GP: factorize ``K + (noise + jitter_used)*I``, invert the
    factor and precompute the weight vector.

    ``jitter_used`` is 0 unless the factorization fails and the
    :func:`chol_with_jitter` ladder fires. The fitted model is then the GP
    with that extra noise: at the training points the mean shrinks each
    eigen-component of ``y`` by ``s/(lambda + s)``, ``s = noise + jitter_used``,
    so components whose eigenvalue ``lambda`` of ``K`` lies below the jitter
    are no longer interpolated, however small ``noise`` is. Empty data, a row
    count mismatch or a non-finite entry raises :class:`DataError`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] < 1:
        raise DataError("need at least one training point")
    if X.shape[0] != y.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} targets")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("training data contains non-finite entries")
    C = kernel_matrix(X, X, hp)
    C.flat[:: X.shape[0] + 1] += hp.noise_variance
    L, jitter = chol_with_jitter(C)
    alpha = cho_solve((L, True), y, check_finite=False)
    return GPModel(X=X, y=y, hp=hp, chol_inv=_triangular_inverse(L),
                   weight_vector=alpha, jitter_used=jitter)


def nlml(X: np.ndarray, y: np.ndarray, hp: Hyperparams) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood and its gradient w.r.t. all log coordinates.

    Value is ``0.5 * y' C^-1 y + sum(log diag L) + (n/2) log 2pi`` with
    ``C = K + noise*I = L L'``. The gradient is R&W (2006) eq. 5.9,
    ``0.5 * tr((C^-1 - a a') dC)`` with ``a = C^-1 y``, and ``C^-1 - a a'``
    is never formed:

    - noise (``dC = 2 noise I``): ``noise * (tr C^-1 - a'a)``;
    - kernel coordinates: :func:`kernel_matrix_grads`, which turns ``C^-1``
      into ``K * C^-1`` in place and contracts every coordinate through one
      product with ``[1, Z]``, ``Z`` the scaled and centred inputs.

    ``K`` is built once and shared with the kernel gradient; ``C^-1`` is
    ``lauum`` of the factor inverse :func:`_triangular_inverse`, the same one
    that :func:`fit` keeps. ``X`` and ``y`` are taken as finite
    (:func:`ensemble.train` checks them once). Coordinates are in the
    canonical order (output scale, lengthscales, noise).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    K = kernel_matrix(X, X, hp)
    C = K.copy()
    C.flat[:: n + 1] += hp.noise_variance
    L, _ = chol_with_jitter(C)
    alpha = cho_solve((L, True), y, check_finite=False)
    value = (0.5 * float(y @ alpha)
             + float(np.sum(np.log(np.diag(L))))
             + 0.5 * n * np.log(2.0 * np.pi))

    # the inverse overwrites L, so it comes after every other use of L;
    # lauum's info reports only illegal arguments
    Cinv, _ = dlauum(_triangular_inverse(L), lower=1, overwrite_c=1)
    # lauum fills the lower triangle of a Fortran-ordered array and leaves
    # L's zeros above it; the transpose is a C-ordered view like K.
    Cinv = Cinv.T
    Cinv += Cinv.T
    Cinv.flat[:: n + 1] *= 0.5
    grads = np.empty(hp.n_params)
    # noise enters as 2*noise_variance*I on the noisy matrix; read it before
    # the kernel gradient overwrites Cinv
    grads[-1] = hp.noise_variance * (np.trace(Cinv) - alpha @ alpha)
    grads[:-1] = kernel_matrix_grads(X, hp, K, Cinv, alpha)
    return value, grads


def predict(model: GPModel, Xstar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and noisy-observation variance at test inputs.

    Variances include observation noise, so each lies in
    ``(noise_variance, output_variance + noise_variance]`` up to jitter;
    round-off dips are clamped at ``noise_variance * (1 - 1e-10)``.
    """
    if not isinstance(model, GPModel):
        raise ValueError("predict requires a fitted GPModel")
    Xstar = np.asarray(Xstar, dtype=float)
    if Xstar.ndim == 1:
        Xstar = Xstar[:, None]
    means, V = _mean_and_whitened(model, Xstar)
    # the column sums of V * V without forming it; for two or more test
    # points the same bits as np.sum(V * V, axis=0), which adds row by row
    return means, _noisy_variance(model.hp, np.einsum("ij,ij->j", V, V))


def _mean_and_whitened(model: GPModel, Xstar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(K*' alpha, L^-1 K*)`` of ``model`` at the 2-D test inputs ``Xstar``.

    The one place a fitted expert meets test inputs: :func:`predict`,
    :func:`predict_extended` and NPAE read every expert term from it. The
    mean is formed before ``trmm`` overwrites ``K*`` with ``L^-1 K*``.
    """
    Kstar = kernel_matrix(model.X, Xstar, model.hp)
    means = Kstar.T @ model.weight_vector
    return means, triangular_product(model.chol_inv, Kstar)


@dataclass(frozen=True)
class BlockExtension:
    """A GP on a fitted base model's rows followed by the rows ``X``, ``y``.

    Only the new rows of the joint factor ``[[L_b, 0], [cross, S]]`` are
    kept: ``cross = K_xb L_b^-T`` and ``schur_inv = S^-1``, where
    ``S S' = C_xx - cross cross' + jitter_used * I``. The base block is the
    base model's own factor, with the jitter it was fitted with.
    """

    X: np.ndarray
    y: np.ndarray
    cross: np.ndarray
    schur_inv: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        """Training rows of the joint model: the base rows plus ``X``'s."""
        return self.cross.shape[1] + self.X.shape[0]


def extend(base: GPModel, X: np.ndarray, y: np.ndarray) -> BlockExtension:
    """Extend ``base`` by the rows ``(X, y)`` without refactoring its block.

    The jitter ladder of :func:`chol_with_jitter` runs on the Schur complement
    ``C_xx - cross cross'`` only; ``X`` and ``y`` are taken as validated.
    """
    hp = base.hp
    # K_xb L_b^-T, formed as the transpose of L_b^-1 K_bx
    cross = triangular_product(base.chol_inv, kernel_matrix(base.X, X, hp)).T
    schur = kernel_matrix(X, X, hp)
    schur.flat[:: X.shape[0] + 1] += hp.noise_variance
    schur -= cross @ cross.T
    S, jitter = chol_with_jitter(schur)
    return BlockExtension(X=X, y=y, cross=cross, schur_inv=_triangular_inverse(S),
                          jitter_used=jitter)


def predict_extended(base: GPModel, extensions: list[BlockExtension],
                     Xstar: np.ndarray, workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and noisy variances of ``base`` and of each of its extensions.

    Row 0 is ``base`` itself, exactly what :func:`predict` returns; row
    ``i + 1`` is ``extensions[i]``. The base terms ``V_b = L_b^-1 K_b*`` and
    ``z_b = L_b^-1 y_b`` are formed once, on the calling thread. Extension i
    adds ``W_i = S_i^-1 (K_i* - cross_i V_b)`` and
    ``z_i = S_i^-1 (y_i - cross_i z_b)``: its mean is ``V_b' z_b + W_i' z_i``
    and its variance the prior minus ``|V_b|^2 + |W_i|^2``, floored as in
    :func:`predict`. The extensions are dealt to ``workers`` threads by
    :func:`fan_out`; every thread count gives the same bits.
    """
    hp = base.hp
    Xstar = np.asarray(Xstar, dtype=float)
    if Xstar.ndim == 1:
        Xstar = Xstar[:, None]
    means = np.empty((len(extensions) + 1, Xstar.shape[0]))
    variances = np.empty_like(means)
    means[0], V_b = _mean_and_whitened(base, Xstar)
    base_explained = np.einsum("ij,ij->j", V_b, V_b)
    variances[0] = _noisy_variance(hp, base_explained)
    z_b = base.chol_inv @ base.y
    base_mean = V_b.T @ z_b

    def extension_row(slot, k):
        ext = extensions[k]
        Kstar = kernel_matrix(ext.X, Xstar, hp)
        Kstar -= ext.cross @ V_b
        W = triangular_product(ext.schur_inv, Kstar)
        z = ext.schur_inv @ (ext.y - ext.cross @ z_b)
        means[k + 1] = base_mean + W.T @ z
        variances[k + 1] = _noisy_variance(hp, base_explained + np.einsum("ij,ij->j", W, W))

    fan_out(extension_row, len(extensions), workers)
    return means, variances

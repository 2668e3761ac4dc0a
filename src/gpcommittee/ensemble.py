"""Factorized committee training: M experts with shared hyperparameters.

The training objective is the sum of per-expert negative log marginal
likelihoods. Its terms are dealt to the committee's ``workers`` slots as
processes (:class:`ExpertBlocks`): on Linux the calling process forks one
worker per extra slot for each :func:`train` call, sends every worker the
hyperparameters of each evaluation and adds all M terms in expert order,
so every worker count gives the same bits. Processes, not threads, because
neither the f2py LAPACK wrappers (which hold the interpreter lock) nor
``cdist`` and ``exp`` on expert-sized blocks scale across threads. The
final fits and GRBCM's augmented experts are loops over the experts in
subset-index order on the calling thread. Prediction deals the experts to
the same number of threads (:func:`gp.fan_out`); every call in it releases
the lock, and every thread count gives the same bits. Both assume BLAS on
one thread: :func:`train` pins it there (:func:`gp.blas_threads`) before it
forks, and so does the experiment harness around its predictions. GRBCM's
augmented experts are block extensions of the communication expert
(:func:`gp.extend`), so its factor is never recomputed.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import sys
import time
from dataclasses import dataclass, replace
from multiprocessing.connection import wait

import numpy as np

from . import gp
from .errors import DataError, MissingCommunicationSubset, NumericalBreakdown
from .kernel import Hyperparams
from .optimize import OptimizerConfig, minimize
from .partition import Partition

# seconds a stopped training worker gets to exit before it is killed
_JOIN_SECONDS = 5.0


@dataclass(frozen=True)
class ExpertEnsemble:
    """Shared hyperparameters plus the fitted experts of one committee.

    ``augmented_experts`` holds the models on (communication subset +
    ordinary subset i), one per non-communication subset in ascending subset
    order, each stored as a block extension of the communication expert; it
    stays None until :func:`prepare_grbcm` runs. ``workers`` is the number of
    parallel slots of the committee: :func:`train` ran its objective terms on
    that many processes (:class:`ExpertBlocks`), and every per-expert
    prediction loop, here and in NPAE, is dealt to that many threads
    (:func:`gp.fan_out`).
    """

    hp: Hyperparams
    partition: Partition
    experts: list[gp.GPModel]
    augmented_experts: list[gp.BlockExtension] | None
    train_time_seconds: float
    opt_evals: int = 0
    opt_trace: tuple[float, ...] = ()
    workers: int = 1

    @property
    def M(self) -> int:
        return len(self.experts)


def _for_expert(i: int, fn, *args):
    """``fn(*args)``, re-raising a breakdown that names expert ``i``."""
    try:
        return fn(*args)
    except NumericalBreakdown as exc:
        raise NumericalBreakdown(
            f"expert {i}: {exc}", jitters_tried=exc.jitters_tried, expert_index=i
        ) from exc


class ExpertBlocks:
    """Each expert's training rows, sliced once, and the worker processes
    that evaluate their objective terms.

    The experts are dealt round-robin to ``slots = min(workers, M)`` slots as
    in :func:`gp.fan_out`: slot ``s`` owns experts ``s, s + slots, ...``.
    The calling process is slot 0. On Linux every other slot is a process
    forked here, which waits on its pipe for a hyperparameter vector and
    sends back its experts' terms; elsewhere, or with one slot, every term
    is evaluated in-process. Either way :meth:`terms` returns the same bits.
    Close the blocks (or use them as a context manager) to stop and join the
    workers.

    A forked worker shares the sliced blocks without pickling them and
    starts in milliseconds, where a spawned one would import numpy and scipy
    again. A fork copies the calling process with one thread only, so create
    the blocks with no other thread running and BLAS already pinned
    (:func:`gp.blas_threads`); Python 3.12 and later warn at the fork if
    BLAS threads, or any other threads, are alive.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, partition: Partition,
                 workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.blocks = [(X[idx], y[idx]) for idx in partition.subsets]
        forks = sys.platform.startswith("linux") and "fork" in mp.get_all_start_methods()
        self.slots = min(workers, len(self.blocks)) if forks else 1
        self._workers: list[tuple] = []    # (process, pipe end) per forked slot
        context = mp.get_context("fork") if forks else None
        try:
            for slot in range(1, self.slots):
                ours, theirs = context.Pipe()
                proc = context.Process(target=self._serve, args=(slot, theirs, ours),
                                       name=f"gpcommittee-train-{slot}", daemon=True)
                proc.start()
                theirs.close()
                self._workers.append((proc, ours))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "ExpertBlocks":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop and join every worker; closing its pipe ends its loop."""
        workers, self._workers = self._workers, []
        for _, conn in workers:
            conn.close()
        for proc, _ in workers:
            proc.join(_JOIN_SECONDS)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
            proc.close()

    def _slot_terms(self, slot: int, hp: Hyperparams) -> tuple[np.ndarray, tuple | None]:
        """One row ``[value, *grad]`` per expert of ``slot``, in order, up to
        the first that raises, and ``(expert, exception)`` for that one.

        One array pickles in a fraction of the time of a list of pairs.
        """
        experts = range(slot, len(self.blocks), self.slots)
        rows = np.empty((len(experts), 1 + hp.n_params))
        for r, k in enumerate(experts):
            try:
                rows[r, 0], rows[r, 1:] = _for_expert(k, gp.nlml, *self.blocks[k], hp)
            except Exception as exc:
                return rows[:r], (k, exc)
        return rows, None

    def _serve(self, slot: int, conn, parent_end) -> None:
        """A worker's loop: one reply per hyperparameter vector, until the
        calling process closes its end of the pipe."""
        # Ctrl-C reaches the calling process, which stops the workers
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # the calling process's ends, copied by the fork, would keep the pipes
        # of this worker and of earlier ones open after the calling process exits
        parent_end.close()
        for _, end in self._workers:
            end.close()
        while True:
            try:
                vector, errstate = conn.recv()
            except EOFError:
                return
            with np.errstate(**errstate):
                reply = self._slot_terms(slot, Hyperparams.from_vector(vector))
            try:
                conn.send(reply)
            except BrokenPipeError:
                return

    def _stopped(self, slot: int) -> RuntimeError:
        proc = self._workers[slot - 1][0]
        proc.join(_JOIN_SECONDS)
        return RuntimeError(f"training worker {slot} stopped (exit code {proc.exitcode})")

    def terms(self, hp: Hyperparams) -> list[np.ndarray]:
        """Every expert's row ``[value, *grad]`` of :func:`gp.nlml` at ``hp``,
        in expert order.

        If any expert raises, the exception of the smallest failing expert
        index is raised once every slot has replied: the one a serial loop
        would have met first. A worker that has died raises
        :class:`RuntimeError`.
        """
        message = (hp.to_vector(), np.geterr())
        for slot, (_, conn) in enumerate(self._workers, start=1):
            try:
                conn.send(message)
            except BrokenPipeError:
                raise self._stopped(slot) from None
        replies = [self._slot_terms(0, hp)]
        for slot, (proc, conn) in enumerate(self._workers, start=1):
            # a worker that dies closes its pipe, and its sentinel turns ready
            if conn not in wait([conn, proc.sentinel]):
                raise self._stopped(slot)
            try:
                replies.append(conn.recv())
            except EOFError:
                raise self._stopped(slot) from None
        failures = [failure for _, failure in replies if failure is not None]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return [replies[k % self.slots][0][k // self.slots] for k in range(len(self.blocks))]


def factorized_nlml(blocks: ExpertBlocks, hp: Hyperparams) -> tuple[float, np.ndarray]:
    """Sum of per-expert NLML values and gradients over the expert blocks.

    Identical to the single-GP objective when M = 1. The terms are added in
    expert order, so every worker count gives the same bits. A factorization
    failure is re-raised naming the offending expert index.
    """
    value = 0.0
    grad = np.zeros(hp.n_params)
    for row in blocks.terms(hp):
        value += row[0]
        grad += row[1:]
    return value, grad


def _fit_experts(blocks: ExpertBlocks, hp: Hyperparams) -> list[gp.GPModel]:
    return [_for_expert(i, gp.fit, Xi, yi, hp) for i, (Xi, yi) in enumerate(blocks.blocks)]


def train(X: np.ndarray, y: np.ndarray, partition: Partition,
          opt_config: OptimizerConfig, workers: int = 1) -> ExpertEnsemble:
    """Optimize shared hyperparameters on the factorized objective, then refit
    every expert (factor inverse + weight vector) at the optimum.

    ``X`` and ``y`` are checked once, before the first objective evaluation:
    a row count mismatch or a non-finite entry raises :class:`DataError`
    naming the first bad row, and the partition is validated against ``X``.
    Each expert's rows are then sliced once, and the objective's terms run
    on ``workers`` (at least 1) slots, one the calling process and the others
    forked processes (:class:`ExpertBlocks`), which are stopped and joined
    before this returns or raises. ``workers`` is kept on the ensemble for
    its prediction threads. BLAS runs on one thread while training.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} targets")
    bad = ~(np.all(np.isfinite(X), axis=1) & np.isfinite(y))
    if bad.any():
        row = int(np.argmax(bad))
        raise DataError(f"training row {row} is not finite: x={X[row].tolist()}, y={y[row]}")
    partition.validate(X.shape[0])
    t0 = time.perf_counter()
    gp.retain_freed_memory()
    with gp.blas_threads(1):
        with ExpertBlocks(X, y, partition, workers) as blocks:
            result = minimize(lambda hp: factorized_nlml(blocks, hp), opt_config)
        experts = _fit_experts(blocks, result.best_hp)
    elapsed = time.perf_counter() - t0
    return ExpertEnsemble(hp=result.best_hp, partition=partition, experts=experts,
                          augmented_experts=None, train_time_seconds=elapsed,
                          opt_evals=result.evals_used, opt_trace=tuple(result.trace),
                          workers=workers)


def prepare_grbcm(ensemble: ExpertEnsemble) -> ExpertEnsemble:
    """Build the M-1 augmented experts on (communication subset + subset i).

    Each is the GP on the communication expert's rows followed by expert i's
    rows, built by :func:`gp.extend` as a block extension of the
    communication expert: it keeps only the cross block ``B_i = K_ic L_c^-T``
    and the inverse Schur factor ``S_i^-1``. The communication block inherits
    the communication expert's jitter, and the jitter ladder runs on the Schur
    complement ``C_ii - B_i B_i'`` only; a breakdown there names expert i.
    Returns a new ensemble; the input is left untouched.
    """
    c = ensemble.partition.communication_index
    if c is None:
        raise MissingCommunicationSubset(
            "partition has no designated communication subset")
    comm = ensemble.experts[c]
    augmented = [_for_expert(i, gp.extend, comm, model.X, model.y)
                 for i, model in enumerate(ensemble.experts) if i != c]
    return replace(ensemble, augmented_experts=augmented)


def experts_predict(ensemble: ExpertEnsemble, Xstar: np.ndarray,
                    augmented: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per-expert predictive means and variances, stacked one row per expert.

    With ``augmented=True`` the rows are the GRBCM committee instead
    (requires :func:`prepare_grbcm` first): row 0 is the communication
    expert, exactly as :func:`gp.predict` gives it, and row ``i + 1`` the
    i-th augmented expert. The communication expert's terms ``L_c^-1 K_c*``
    and ``L_c^-1 y_c`` are formed once and each augmented expert adds its
    own block (see :func:`gp.predict_extended`). Either way the rows are
    dealt to ``ensemble.workers`` threads, and every thread count gives the
    same bits.
    """
    if augmented:
        if ensemble.augmented_experts is None:
            raise MissingCommunicationSubset("augmented experts not prepared")
        comm = ensemble.experts[ensemble.partition.communication_index]
        return gp.predict_extended(comm, ensemble.augmented_experts, Xstar,
                                   ensemble.workers)
    Xstar = np.asarray(Xstar, dtype=float)
    if Xstar.ndim == 1:
        Xstar = Xstar[:, None]
    means = np.empty((ensemble.M, Xstar.shape[0]))
    variances = np.empty_like(means)

    def predict_row(slot, i):
        means[i], variances[i] = gp.predict(ensemble.experts[i], Xstar)

    gp.fan_out(predict_row, ensemble.M, ensemble.workers)
    return means, variances

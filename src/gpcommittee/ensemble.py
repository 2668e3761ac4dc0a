"""Factorized committee training: M experts with shared hyperparameters.

The training objective is the sum of per-expert negative log marginal
likelihoods. Its terms are dealt to the committee's ``workers`` slots as
processes (:class:`ExpertBlocks`): on Linux the calling process forks one
worker per extra slot for each :func:`train` call, sends every worker the
hyperparameters of each evaluation and adds all M terms in expert order,
so every worker count gives the same bits. Processes, not threads, because
neither the f2py LAPACK wrappers of the objective (which hold the
interpreter lock) nor ``cdist`` and ``exp`` on expert-sized blocks scale
across threads. The final fits are a loop over the experts in subset-index
order on the calling thread. Prediction deals the experts to the same
number of slots (:func:`gp.fan_out`), the calling thread as slot 0 as in
training and one new thread per extra slot; every call in it releases the
lock, and every slot count gives the same bits. Every per-expert loop runs
with BLAS on one thread (:func:`gp.blas_threads`): :func:`train` pins it
before it forks, and :func:`gp.fan_out` for the prediction loops. GRBCM's
augmented experts, the builders :func:`prepare_grbcm` returns for
:func:`experts_predict`, are block extensions of the communication expert
(:func:`gp.extend`), so its factor is never recomputed. Each one is built
inside its own prediction task, predicted and dropped, so GRBCM holds at
most one augmented expert per slot: its memory is O(workers m0^2), not
O(M m0^2), and the augmented experts are built again on every prediction.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import signal
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import gp
from .errors import MissingCommunicationSubset, NumericalBreakdown
from .kernel import Hyperparams
from .optimize import minimize
from .partition import Partition

# seconds a stopped training worker gets to exit before it is killed
_JOIN_SECONDS = 5.0


@dataclass(frozen=True)
class ExpertEnsemble:
    """Shared hyperparameters plus the fitted experts of one committee.

    ``workers`` is the number of parallel slots of the committee: :func:`train`
    ran its objective terms on that many processes (:class:`ExpertBlocks`),
    and every per-expert prediction loop, here and in NPAE, is dealt to that
    many slots, the calling thread and new threads (:func:`gp.fan_out`).
    """

    hp: Hyperparams
    partition: Partition
    experts: list[gp.GPModel]
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
        """One row ``[value, *grad]`` per expert of ``slot``, in order, and
        ``(expert, exception)`` for the first expert that raises.

        The rows from that expert on are left as they are; no caller reads
        them. One array pickles in a fraction of the time of a list of pairs.
        """
        experts = range(slot, len(self.blocks), self.slots)
        rows = np.empty((len(experts), 1 + hp.n_params))
        for r, k in enumerate(experts):
            try:
                rows[r, 0], rows[r, 1:] = _for_expert(k, gp.nlml, *self.blocks[k], hp)
            except Exception as exc:
                return rows, (k, exc)
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

    def terms(self, hp: Hyperparams) -> np.ndarray:
        """Every expert's row ``[value, *grad]`` of :func:`gp.nlml` at ``hp``:
        one ``(M, 1 + n_params)`` array in expert order, slot ``s``'s reply
        written to ``rows[s::slots]``.

        If any expert raises, the exception of the smallest failing expert
        index is raised once every slot has replied: the one a serial loop
        would have met first. Only a worker holds the far end of its pipe:
        the calling process closes it after the fork, and each later worker
        closes the ends it inherits. So a worker that has died leaves its
        pipe at end-of-file, and :class:`RuntimeError` is raised.
        """
        message = (hp.to_vector(), np.geterr())
        for slot, (_, conn) in enumerate(self._workers, start=1):
            try:
                conn.send(message)
            except BrokenPipeError:
                raise self._stopped(slot) from None
        replies = [self._slot_terms(0, hp)]
        for slot, (_, conn) in enumerate(self._workers, start=1):
            try:
                replies.append(conn.recv())
            except EOFError:
                raise self._stopped(slot) from None
        failures = [failure for _, failure in replies if failure is not None]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        rows = np.empty((len(self.blocks), 1 + hp.n_params))
        for slot, (reply, _) in enumerate(replies):
            rows[slot::self.slots] = reply
        return rows


def factorized_nlml(blocks: ExpertBlocks, hp: Hyperparams) -> tuple[float, np.ndarray]:
    """Sum of per-expert NLML values and gradients over the expert blocks.

    Identical to the single-GP objective when M = 1. ``np.sum`` over the
    rows of :meth:`ExpertBlocks.terms` adds them one after another from 0,
    in expert order, so every worker count gives the same bits. A
    factorization failure is re-raised naming the offending expert index.
    """
    total = np.sum(blocks.terms(hp), axis=0, initial=0.0)
    return total[0], total[1:]


def _fit_experts(blocks: ExpertBlocks, hp: Hyperparams) -> list[gp.GPModel]:
    return [_for_expert(i, gp.fit, Xi, yi, hp) for i, (Xi, yi) in enumerate(blocks.blocks)]


def train(X: np.ndarray, y: np.ndarray, partition: Partition, max_evals: int,
          workers: int = 1) -> ExpertEnsemble:
    """Optimize shared hyperparameters on the factorized objective, then refit
    every expert (factor inverse + weight vector) at the optimum.

    The optimizer starts from :meth:`Hyperparams.default` for the columns of
    ``X`` and evaluates the objective at most ``max_evals`` (>= 1) times.

    ``X`` and ``y`` are checked once, before the first objective evaluation,
    by :func:`gp.as_training_rows`: a row count mismatch or a non-finite
    entry raises :class:`DataError` naming the first bad row. The partition
    is then validated against ``X``.
    Each expert's rows are then sliced once, and the objective's terms run
    on ``workers`` (at least 1) slots, one the calling process and the others
    forked processes (:class:`ExpertBlocks`), which are stopped and joined
    before this returns or raises. ``workers`` is kept on the ensemble for
    its prediction slots. BLAS runs on one thread while training.
    """
    X, y = gp.as_training_rows(X, y)
    partition.validate(X.shape[0])
    # before any worker is forked
    if max_evals < 1:
        raise ValueError(f"max_evals must be >= 1, got {max_evals}")
    t0 = time.perf_counter()
    gp.retain_freed_memory()
    with gp.blas_threads(1):
        with ExpertBlocks(X, y, partition, workers) as blocks:
            result = minimize(lambda hp: factorized_nlml(blocks, hp),
                              Hyperparams.default(X.shape[1]), max_evals)
        experts = _fit_experts(blocks, result.best_hp)
    elapsed = time.perf_counter() - t0
    return ExpertEnsemble(hp=result.best_hp, partition=partition, experts=experts,
                          train_time_seconds=elapsed, opt_evals=result.evals_used,
                          opt_trace=tuple(result.trace), workers=workers)


def prepare_grbcm(ensemble: ExpertEnsemble) -> list[Callable[[], gp.BlockExtension]]:
    """The M-1 augmented experts on (communication subset + subset i), in
    order and unbuilt: one zero-argument builder each.

    The communication expert is expert 0 of a random or hybrid partition
    (:attr:`Partition.communication_index`); a disjoint partition has none.
    Augmented expert i, for i = 1, ..., M - 1, is the GP on expert 0's rows
    followed by expert i's, built by :func:`gp.extend` as a block extension
    of expert 0: it keeps only the cross block ``B_i = K_ic L_c^-T`` and the
    inverse Schur factor ``S_i^-1``. The communication block inherits expert
    0's jitter, and the jitter ladder runs on the Schur complement
    ``C_ii - B_i B_i'`` only; a breakdown there names expert i. With M = 1
    the list is empty, and GRBCM is the one expert.
    Nothing is built here: :func:`experts_predict` builds each augmented
    expert in its own prediction task, predicts its row and drops it
    (:func:`gp.predict_extended`), so only one per slot is ever alive. The
    ensemble is left untouched.
    """
    if ensemble.partition.communication_index is None:
        raise MissingCommunicationSubset("a disjoint partition has no communication subset")
    comm, *others = ensemble.experts
    return [functools.partial(_for_expert, i, gp.extend, comm, model.X, model.y)
            for i, model in enumerate(others, start=1)]


def experts_predict(ensemble: ExpertEnsemble, Xstar: np.ndarray,
                    extensions: list[Callable[[], gp.BlockExtension]] | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-expert predictive means and variances, stacked one row per expert.

    Given ``extensions``, the unbuilt augmented experts of
    :func:`prepare_grbcm` (even an empty list), the rows are the GRBCM
    committee instead: row 0 is expert 0, the communication expert, exactly
    as :func:`gp.predict` gives it, and row ``i + 1`` the i-th augmented
    expert. Expert 0's terms ``L_c^-1 K_c*`` and ``L_c^-1 y_c`` are formed
    once; each augmented expert is built in its own task, adds its own block
    and is dropped (see :func:`gp.predict_extended`), so the augmented
    experts are built again on every call. Either way the rows are dealt to
    ``ensemble.workers`` slots, and every slot count gives the same bits. A
    non-finite test input raises :class:`DataError`
    (:func:`gp.as_test_inputs`).
    """
    if extensions is not None:
        return gp.predict_extended(ensemble.experts[0], extensions, Xstar, ensemble.workers)
    Xstar = gp.as_test_inputs(Xstar)
    means = np.empty((ensemble.M, Xstar.shape[0]))
    variances = np.empty_like(means)

    def predict_row(i):
        means[i], variances[i] = gp.predict(ensemble.experts[i], Xstar)

    gp.fan_out(predict_row, ensemble.M, ensemble.workers)
    return means, variances

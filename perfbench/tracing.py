"""In-memory span tracing for the committee benchmark's traced run.

The traced run wraps public functions of ``gpcommittee`` in every module
namespace that calls them: a function imported by name is looked up in the
importing module, so it has to be patched there. Each wrapper records one
span (name, start, end, parent, thread, the benchmark call it belongs to
and a few attributes read from its arguments or result). A per-thread stack
gives the parent; a span opened on a pool thread with an empty stack takes
as parent the innermost open span of the thread that started the call,
which is the span that fanned the work out.

:func:`layer_metrics` turns the spans of one call into the per-layer
metrics listed in ``BENCHMARK.json``. Every time is busy time summed over
threads; self time is a span's duration minus the union of its children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import threading
import time
from dataclasses import dataclass, field

METHOD_LABELS = ("poe", "gpoe_uniform", "bcm", "rbcm", "npae", "grbcm")


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    call: int
    start: float
    end: float = math.nan
    failed: bool = False
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; ``call`` tags spans with the benchmark call in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call = 0
        self.expert_inputs: set[int] = set()
        self._root = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()

    def _open(self, name: str) -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                root = self._stacks.get(self._root)
                parent = root[-1] if root and tid != self._root else None
            span = Span(len(self.spans), parent, name, tid, self.call, time.perf_counter())
            self.spans.append(span)
            stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[span.thread].pop()

    def wrap(self, name, fn, describe=None, before=None):
        """Return ``fn`` recording a span per call.

        ``before(args, kwargs)`` runs first and ``describe(args, kwargs,
        result)`` after a normal return; the attributes either returns are
        stored on the span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before is not None else None
            span = self._open(name)
            if attrs:
                span.attrs.update(attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                self._close(span)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result
        return traced

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("sid,parent,call,thread,name,start,end,failed\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.sid},{parent},{s.call},{s.thread},{s.name},"
                         f"{s.start!r},{s.end!r},{int(s.failed)}\n")


def _entries(args, kwargs, result):
    return {"entries": result.size}


def _grad_entries(args, kwargs, result):
    return {"entries": sum(g.size for g in result)}


def _jitter(args, kwargs, result):
    return {"jitter": result[1]}


def _nonfinite(args, kwargs, result):
    value, grad = result
    return {"nonfinite": not (math.isfinite(value) and all(map(math.isfinite, grad)))}


def _minimize(args, kwargs, result):
    return {"evals": result.evals_used, "best": result.best_value}


def _size_ratio(args, kwargs, result):
    sizes = [s.size for s in result.subsets]
    return {"ratio": max(sizes) / min(sizes)}


def _method_label(args, kwargs):
    method, config = args[0], args[3]
    return {"method": f"gpoe_{config.gpoe_mode}" if method == "gpoe" else method}


def _degeneracy(args, kwargs, result):
    return {"degeneracy": result.degeneracy_count}


def _install_targets(tracer: Tracer):
    """(module, attribute, span name, describe, before) for every patched name."""
    def remember_experts(args, kwargs):
        tracer.expert_inputs = {id(m.X) for m in args[0].experts}

    def cross(args, kwargs, result):
        return {"entries": result.size, "cross": id(args[1]) in tracer.expert_inputs}

    kernel_site = [("gpcommittee.kernel", "kernel_matrix", "kernel.kernel_matrix", _entries, None)]
    gp_site = [
        ("gpcommittee.gp", "kernel_matrix", "kernel.kernel_matrix", _entries, None),
        ("gpcommittee.gp", "kernel_matrix_grads", "kernel.grads", _grad_entries, None),
        ("gpcommittee.gp", "chol_with_jitter", "gp.chol", _jitter, None),
        ("gpcommittee.gp", "cho_solve", "gp.cho_solve", None, None),
        ("gpcommittee.gp", "nlml", "gp.nlml", None, None),
        ("gpcommittee.gp", "fit", "gp.fit", None, None),
        ("gpcommittee.gp", "predict", "gp.predict", None, None),
    ]
    ensemble_site = [
        ("gpcommittee.ensemble", "minimize", "optimize.minimize", _minimize, None),
        ("gpcommittee.ensemble", "factorized_nlml", "ensemble.factorized_nlml", _nonfinite, None),
        ("gpcommittee.ensemble", "_fit_experts", "ensemble.final_fit", None, None),
    ]
    aggregate_site = [
        ("gpcommittee.aggregate", "experts_predict", "ensemble.experts_predict", None, None),
        ("gpcommittee.aggregate", "predict", "gp.predict", None, None),
        ("gpcommittee.aggregate", "chol_with_jitter", "aggregate.point_chol", None, None),
        ("gpcommittee.aggregate", "cho_solve", "aggregate.cho_solve", None, None),
        ("gpcommittee.aggregate", "kernel_matrix", "kernel.kernel_matrix", cross, None),
        ("gpcommittee.aggregate", "npae", "aggregate.npae", None, remember_experts),
        ("gpcommittee.aggregate", "grbcm", "aggregate.grbcm", None, None),
    ] + [("gpcommittee.aggregate", f, "aggregate.fuse", None, None)
         for f in ("poe", "gpoe", "bcm", "rbcm", "grbcm_fuse")]
    bench_site = [
        ("gpcommittee.bench", "train", "ensemble.train", None, None),
        ("gpcommittee.bench", "experts_predict", "ensemble.experts_predict", None, None),
        ("gpcommittee.bench", "prepare_grbcm", "ensemble.prepare_grbcm", None, None),
        ("gpcommittee.bench", "_predict_method", "bench.predict", _degeneracy, _method_label),
        ("gpcommittee.bench", "toy_generate", "data.load", None, None),
        ("gpcommittee.bench", "load_csv", "data.load", None, None),
    ] + [("gpcommittee.bench", f, "partition", _size_ratio, None)
         for f in ("grbcm_partition", "disjoint_partition", "random_partition")]
    return kernel_site + gp_site + ensemble_site + aggregate_site + bench_site


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch every traced name for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, attr, name, describe, before in _install_targets(tracer):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, describe, before))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values for the spans of one benchmark call (see BENCHMARK.json)."""
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        # outermost spans only, so a rule calling another rule counts once
        total = 0.0
        for s in named(name):
            p = s.parent
            while p is not None and by_id[p].name != name:
                p = by_id[p].parent
            if p is None:
                total += s.end - s.start
        return total

    def self_time(name):
        total = 0.0
        for s in named(name):
            kids = [(max(c.start, s.start), min(c.end, s.end))
                    for c in children.get(s.sid, ())]
            total += (s.end - s.start) - _union_length([k for k in kids if k[1] > k[0]])
        return total

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    minimize = named("optimize.minimize")
    evals = attr_sum("optimize.minimize", "evals")
    npae_cross = 0.0
    for s in named("aggregate.npae"):
        pair = [c for c in children.get(s.sid, ())
                if c.name == "kernel.kernel_matrix" and c.attrs.get("cross")]
        if pair:
            npae_cross += max(c.end for c in pair) - min(c.start for c in pair)
    predict_by_method = {label: 0.0 for label in METHOD_LABELS}
    for s in named("bench.predict"):
        predict_by_method[s.attrs["method"]] += s.end - s.start

    metrics = {
        "data.load_s": busy("data.load"),
        "partition.s": busy("partition"),
        "partition.size_ratio": max((s.attrs.get("ratio", math.nan) for s in named("partition")),
                                    default=math.nan),
        "kernel.kernel_matrix_s": busy("kernel.kernel_matrix"),
        "kernel.kernel_matrix_calls": len(named("kernel.kernel_matrix")),
        "kernel.grads_s": busy("kernel.grads"),
        "kernel.grads_self_s": self_time("kernel.grads"),
        "kernel.grads_calls": len(named("kernel.grads")),
        "kernel.entries": attr_sum("kernel.kernel_matrix", "entries")
                          + attr_sum("kernel.grads", "entries"),
        "gp.nlml_s": busy("gp.nlml"),
        "gp.nlml_self_s": self_time("gp.nlml"),
        "gp.nlml_calls": len(named("gp.nlml")),
        "gp.chol_s": busy("gp.chol"),
        "gp.chol_calls": len(named("gp.chol")),
        "gp.jitter_nonzero": sum(1 for s in named("gp.chol") if s.attrs.get("jitter", 0) > 0),
        "gp.cho_solve_s": busy("gp.cho_solve"),
        "gp.cho_solve_calls": len(named("gp.cho_solve")),
        "gp.fit_s": busy("gp.fit"),
        "gp.fit_calls": len(named("gp.fit")),
        "gp.predict_s": busy("gp.predict"),
        "gp.predict_calls": len(named("gp.predict")),
        "optimize.minimize_s": busy("optimize.minimize"),
        "optimize.evals": evals,
        "optimize.s_per_eval": busy("optimize.minimize") / evals if evals else math.nan,
        "optimize.self_s": self_time("optimize.minimize"),
        "optimize.nonfinite_evals": sum(1 for s in named("ensemble.factorized_nlml")
                                        if s.failed or s.attrs.get("nonfinite")),
        "optimize.final_nlml": min((s.attrs.get("best", math.nan) for s in minimize),
                                   default=math.nan),
        "ensemble.factorized_nlml_s": busy("ensemble.factorized_nlml"),
        "ensemble.factorized_nlml_self_s": self_time("ensemble.factorized_nlml"),
        "ensemble.final_fit_s": busy("ensemble.final_fit"),
        "ensemble.experts_predict_s": busy("ensemble.experts_predict"),
        "ensemble.experts_predict_calls": len(named("ensemble.experts_predict")),
        "ensemble.prepare_grbcm_s": busy("ensemble.prepare_grbcm"),
        "aggregate.fuse_s": busy("aggregate.fuse"),
        "aggregate.npae_s": busy("aggregate.npae"),
        "aggregate.npae_self_s": self_time("aggregate.npae"),
        "aggregate.npae_cross_s": npae_cross,
        "aggregate.npae_point_solves": len(named("aggregate.point_chol")),
        "aggregate.grbcm_s": busy("aggregate.grbcm"),
        "aggregate.degeneracy_count": attr_sum("bench.predict", "degeneracy"),
    }
    for label, seconds in predict_by_method.items():
        metrics[f"bench.predict.{label}_s"] = seconds
    metrics["bench.spans"] = len(spans)
    return metrics

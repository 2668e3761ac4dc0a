"""Committee benchmark: time to a fitted committee and to fused predictions.

Run from the repository root:

    python3 perfbench/run.py --workload toy1d-train --seed 1 --seconds 25 --trace 0

A run sets up its inputs from ``--seed`` (several times, reporting the median
set-up time), then calls ``gpcommittee.bench.run_experiment`` in a closed
loop, one call at a time, cycling through the workload's datasets until every
dataset has been visited and ``--seconds`` have passed. Each call is checked
(see :func:`check_call`); a failed check counts one failed operation per
aggregation method and the run goes on.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``,
measured with a single timestamp wrapper around the ``train`` name that
``gpcommittee.bench`` imports. ``--trace 1`` follows every untraced call
with a twin call on the same dataset that has every layer wrapped (see
``tracing.py``), and reports the per-layer metrics of the traced calls; the
median traced-minus-untraced ``total_s`` of the pairs is the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
including the environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the committee's own workers
# are the only parallelism
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics, traced  # noqa: E402
from workloads import ALL_METHODS, WORKLOADS, Workload, dataset_seeds, write_csv8d  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUPS = 5

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import gpcommittee; "
                 "print(time.perf_counter() - t)")


class MissingProgram(Exception):
    """The checkout holds no importable ``gpcommittee`` under ``src/``."""


def load_program():
    """Import ``gpcommittee`` from the checkout's ``src`` and from nowhere else."""
    init = os.path.join(SRC, "gpcommittee", "__init__.py")
    if not os.path.isfile(init):
        raise MissingProgram(f"no gpcommittee package at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gpcommittee
    if os.path.abspath(gpcommittee.__file__) != init:
        raise MissingProgram(f"gpcommittee imported from {gpcommittee.__file__}, not {init}")
    return gpcommittee


def metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment(workload: Workload, seed: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload.name,
        "workers": workload.config["workers"],
        "datasets": workload.datasets,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up

def make_inputs(workload: Workload, seed: int) -> list:
    """One ExperimentConfig per dataset; writes the CSV tables a workload needs."""
    from gpcommittee.bench import ExperimentConfig
    configs = []
    for k, ds_seed in enumerate(dataset_seeds(seed, workload.datasets)):
        fields = dict(workload.config, methods=ALL_METHODS, seed=ds_seed)
        if workload.csv_rows:
            path = os.path.join(RESULTS, "inputs", f"{workload.name}-{k}.csv")
            write_csv8d(path, workload.csv_rows, ds_seed)
            fields["csv_path"] = path
        configs.append(ExperimentConfig(**fields))
    return configs


def set_up(workload: Workload, seed: int) -> tuple[list, float]:
    """Median over SETUPS of: a fresh interpreter importing gpcommittee (timed
    inside it) plus generating the workload's inputs."""
    samples = []
    for _ in range(SETUPS):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], cwd=ROOT,
                               capture_output=True, text=True, timeout=120, check=True)
        start = time.perf_counter()
        configs = make_inputs(workload, seed)
        samples.append(float(probe.stdout) + time.perf_counter() - start)
    return configs, statistics.median(samples)


# ---------------------------------------------------------------------------
# one closed-loop operation

@dataclass
class Call:
    dataset: int
    train_s: float
    predict_s: float
    total_s: float
    scores: dict[str, tuple[float, float]]        # label -> (smse, msll)
    failures: dict[str, str] = field(default_factory=dict)  # label -> reason
    traced: bool = False


def method_label(config, method: str) -> str:
    return f"gpoe_{config.gpoe_mode}" if method == "gpoe" else method


def check_call(config, result, committee) -> tuple[dict, dict]:
    """Scores per method and the reason each failing method failed.

    A method fails when its record carries an error, a score is non-finite or
    SMSE >= 1 (no better than predicting the training mean). Every method
    fails when the optimizer trace rose or ended non-finite.
    """
    labels = [method_label(config, m) for m in config.methods]
    trace = committee.opt_trace
    if not (trace and math.isfinite(trace[-1]) and trace[-1] <= trace[0]):
        reason = f"optimizer trace {trace[:1]}..{trace[-1:]} rose or is not finite"
        return {l: (math.nan, math.nan) for l in labels}, {l: reason for l in labels}
    scores, failures = {}, {}
    for rec in result.records:
        scores[rec.method] = (rec.smse, rec.msll)
        if rec.error:
            failures[rec.method] = rec.error
        elif not (math.isfinite(rec.smse) and math.isfinite(rec.msll)):
            failures[rec.method] = f"non-finite score smse={rec.smse} msll={rec.msll}"
        elif rec.smse >= 1.0:
            failures[rec.method] = f"smse {rec.smse} >= 1"
    return scores, failures


def one_call(config, dataset: int) -> Call:
    """Time one run_experiment call, splitting it at the return of ``train``."""
    from gpcommittee import bench
    marks = {}
    train = bench.train

    def timed_train(*args, **kwargs):
        start = time.perf_counter()
        committee = train(*args, **kwargs)
        marks["train"] = (start, time.perf_counter(), committee)
        return committee

    bench.train = timed_train
    start = time.perf_counter()
    try:
        result = bench.run_experiment(config)
    except Exception:
        # the loop must keep running: a call that raises fails every method
        end = time.perf_counter()
        reason = traceback.format_exc()
        print(reason, file=sys.stderr)
        labels = [method_label(config, m) for m in config.methods]
        return Call(dataset, math.nan, math.nan, end - start,
                    {l: (math.nan, math.nan) for l in labels},
                    {l: reason.strip().splitlines()[-1] for l in labels})
    finally:
        bench.train = train
    end = time.perf_counter()
    train_start, train_end, committee = marks["train"]
    scores, failures = check_call(config, result, committee)
    return Call(dataset, train_end - train_start, end - train_end, end - start,
                scores, failures)


# ---------------------------------------------------------------------------
# a run

def _median(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else math.nan


def _mean(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return statistics.fmean(finite) if finite else math.nan


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the closed loop and return every metric with the call log."""
    configs, setup_s = set_up(workload, seed)
    calls: list[Call] = []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    i = 0
    while i < len(configs) or time.perf_counter() - start < seconds:
        k = i % len(configs)
        calls.append(one_call(configs[k], k))
        if tracer is not None:
            # the traced twin of the untraced call just made
            tracer.call = i
            with traced(tracer):
                call = one_call(configs[k], k)
            call.traced = True
            calls.append(call)
        i += 1

    # a dataset visited again must give exactly the scores of its first visit
    first: dict[int, dict] = {}
    for call in calls:
        if call.dataset not in first:
            first[call.dataset] = call.scores
            continue
        for label, score in call.scores.items():
            if label not in call.failures and score != first[call.dataset].get(label):
                call.failures[label] = f"scores {score} differ from the first visit"

    labels = [method_label(configs[0], m) for m in configs[0].methods]
    values = {
        "setup_s": setup_s,
        "train_s": _median(c.train_s for c in calls if not c.traced),
        "predict_s": _median(c.predict_s for c in calls if not c.traced),
        "total_s": _median(c.total_s for c in calls if not c.traced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    for label in labels:
        smse = _mean(first[k][label][0] for k in first)
        msll = _mean(first[k][label][1] for k in first)
        values[f"smse.{label}"] = smse
        values[f"msll.{label}"] = msll
        with np.errstate(over="ignore"):
            values[f"exp_msll.{label}"] = float(np.exp(msll))
    attempted = sum(len(c.scores) for c in calls)
    failed = sum(len(c.failures) for c in calls)
    if tracer is not None:
        per_call = [layer_metrics([s for s in tracer.spans if s.call == c])
                    for c in sorted({s.call for s in tracer.spans})]
        for name in per_call[0]:
            values[name] = _median(m[name] for m in per_call)
        values["bench.trace_overhead_s"] = _median(
            t.total_s - u.total_s for u, t in zip(calls[0::2], calls[1::2]))
        values["bench.ops"] = attempted
        values["bench.failed_ops"] = failed
        for label in labels:
            values[f"bench.smse.{label}"] = values[f"smse.{label}"]
            values[f"bench.msll.{label}"] = values[f"msll.{label}"]
    return {"values": values, "calls": calls, "attempted": attempted, "failed": failed,
            "tracer": tracer}


def report(trace: bool, measured: dict) -> dict:
    """The result object: exactly the metrics BENCHMARK.json names for this mode."""
    specs = metric_specs()["per_layer" if trace else "end_to_end"]
    metrics = {}
    for spec in specs:
        value = float(measured["values"][spec["name"]])
        metrics[spec["name"]] = {"value": value if math.isfinite(value) else None,
                                 "unit": spec["unit"]}
    return {"correct": measured["failed"] == 0, "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    env = environment(workload, args.seed)
    measured = measure(workload, args.seed, args.seconds, trace)
    result = report(trace, measured)

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if measured["tracer"] is not None:
        measured["tracer"].write_csv(stem + ".spans.csv")
    with open(stem + ".json", "w") as fh:
        json.dump({"environment": env, "result": result,
                   "calls": [vars(c) for c in measured["calls"]]}, fh, indent=1, default=str)

    print("environment " + json.dumps(env))
    for call in measured["calls"]:
        for label, reason in call.failures.items():
            print(f"FAILED dataset {call.dataset} {label}: {reason}")
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

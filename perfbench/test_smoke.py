"""Smoke test of the committee benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import math
import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "toy1d-train": dict(n=200, m0=50),
    "toy1d-predict": dict(n=200, m0=25, n_test=100),
    "csv8d-train": dict(m0=25),
}


def tiny(name):
    w = WORKLOADS[name]
    return replace(w, datasets=2, config=dict(w.config, max_evals=5, **TINY[name]),
                   csv_rows=200 if w.csv_rows else None)


def metric_names(trace):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer" if trace else "end_to_end"]]


@pytest.fixture(scope="module", autouse=True)
def program():
    return run.load_program()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted(name, trace):
    measured = run.measure(tiny(name), seed=3, seconds=0, trace=trace)
    result = run.report(trace, measured)
    assert list(result["metrics"]) == metric_names(trace)
    missing = [k for k, m in result["metrics"].items() if m["value"] is None]
    assert missing == []
    assert result["attempted"] == 6 * len(measured["calls"])
    if trace and name == "toy1d-predict":
        # four rules predict through the harness, grbcm once more for its
        # augmented experts
        assert result["metrics"]["ensemble.experts_predict_calls"]["value"] == 5


@pytest.mark.parametrize("trace", [False, True])
def test_forced_method_failure_is_counted_not_fatal(monkeypatch, trace):
    from gpcommittee import aggregate
    from gpcommittee.errors import NumericalBreakdown

    def broken_npae(*args, **kwargs):
        raise NumericalBreakdown("forced failure")

    monkeypatch.setattr(aggregate, "npae", broken_npae)
    measured = run.measure(tiny("toy1d-predict"), seed=3, seconds=0, trace=trace)
    result = run.report(trace, measured)
    calls = measured["calls"]
    assert result["correct"] is False
    assert result["attempted"] == 6 * len(calls)
    assert result["failed"] == sum(len(c.failures) for c in calls)
    for call in calls:
        assert call.failures["npae"] == "NumericalBreakdown: forced failure"
        assert all(math.isfinite(s) for label, score in call.scores.items()
                   if label != "npae" for s in score)
    if not trace:
        assert result["metrics"]["exp_msll.npae"]["value"] is None
        assert result["metrics"]["exp_msll.grbcm"]["value"] is not None


def test_missing_program_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    code = run.main(["--workload", "toy1d-train", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""

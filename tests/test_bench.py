import math
from dataclasses import fields, replace

import numpy as np
import pytest

from gpcommittee import (AggregatedPrediction, ExperimentConfig, PartitionKind, RunRecord,
                         aggregate, read_results_csv, run_experiment)
from gpcommittee.bench import METHOD_CHOICES, write_results_csv


def test_invalid_fused_prediction_recorded_per_method(monkeypatch):
    def rbcm_nan_variance(means, variances, prior):
        # AggregatedPrediction's own validation raises NumericalBreakdown here
        return AggregatedPrediction(means[0], np.full(means.shape[1], np.nan))

    monkeypatch.setattr(aggregate, "rbcm", rbcm_nan_variance)
    config = ExperimentConfig(n=120, n_test=30, m0=40, max_evals=3,
                              methods=("poe", "gpoe", "bcm", "rbcm", "npae", "grbcm"))
    records = {rec.method: rec for rec in run_experiment(config).records}
    assert list(records) == ["poe", "gpoe_uniform", "bcm", "rbcm", "npae", "grbcm"]
    failed = records.pop("rbcm")
    assert failed.error.startswith("NumericalBreakdown: aggregated variances")
    assert math.isnan(failed.smse) and math.isnan(failed.msll)
    for rec in records.values():
        assert rec.error is None
        assert math.isfinite(rec.smse) and math.isfinite(rec.msll)


@pytest.mark.parametrize("sizes, message", [
    (dict(M=0), "M must be >= 1, got 0"),
    (dict(m0=0), "m0 must be >= 1, got 0"),
    (dict(m0=-5), "m0 must be >= 1, got -5"),
    (dict(m0=40, workers=0), "workers must be >= 1, got 0"),
])
def test_non_positive_committee_size_rejected(sizes, message):
    # m0=0 divided by zero and m0=-5 ran a one-expert committee
    config = ExperimentConfig(n=120, n_test=30, max_evals=3, **sizes)
    with pytest.raises(ValueError, match=message):
        config.validate()
    with pytest.raises(ValueError, match=message):
        run_experiment(config)


@pytest.mark.parametrize("kind, expected", [
    ("random", PartitionKind.RANDOM),
    ("disjoint", PartitionKind.GRBCM_HYBRID),
])
def test_every_partition_kind_runs_every_rule(kind, expected):
    config = ExperimentConfig(n=120, n_test=30, m0=40, max_evals=3, partition_kind=kind,
                              methods=METHOD_CHOICES)
    result = run_experiment(config)
    assert [rec.method for rec in result.records] == [
        "poe", "gpoe_uniform", "bcm", "rbcm", "npae", "grbcm"]
    for rec in result.records:
        assert rec.error is None
        assert math.isfinite(rec.smse) and math.isfinite(rec.msll)
    (part,) = result.partitions
    assert part.kind == expected
    assert part.communication_index == 0
    if kind == "disjoint":
        # without grbcm the k-means partition has no communication subset
        (plain,) = run_experiment(replace(config, methods=("poe",))).partitions
        assert plain.kind == PartitionKind.DISJOINT
        assert plain.communication_index is None


def test_workers_do_not_change_the_records():
    config = ExperimentConfig(n=200, n_test=40, m0=30, max_evals=3, methods=METHOD_CHOICES)

    def untimed(workers):
        return [replace(rec, train_time_seconds=0.0, predict_time_seconds=0.0)
                for rec in run_experiment(replace(config, workers=workers)).records]

    serial = untimed(1)
    assert all(rec.error is None for rec in serial)
    assert untimed(2) == serial


def test_results_csv_round_trips_failed_records(tmp_path):
    records = [
        RunRecord(method="rbcm", repetition=0, seed=3, smse=math.nan, msll=math.nan,
                  train_time_seconds=0.25, predict_time_seconds=math.nan,
                  degeneracy_count=0, error='NumericalBreakdown: bad, "quoted" value'),
        RunRecord(method="poe", repetition=1, seed=4, smse=0.1, msll=-1.5,
                  train_time_seconds=0.5, predict_time_seconds=0.01, degeneracy_count=2),
        RunRecord(method="grbcm", repetition=1, seed=4, smse=1 / 3, msll=-2.0,
                  train_time_seconds=0.5, predict_time_seconds=0.02, degeneracy_count=0,
                  beta_mean=0.7, beta_min=0.1, beta_max=2 / 3),
    ]
    path = str(tmp_path / "results.csv")
    write_results_csv(records, path)
    with open(path) as fh:
        assert fh.readline().rstrip() == (
            "method,repetition,seed,smse,msll,train_time_seconds,predict_time_seconds,"
            "degeneracy_count,beta_mean,beta_min,beta_max,error")
    back = read_results_csv(path)
    assert len(back) == len(records)
    for got, want in zip(back, records):
        for f in fields(RunRecord):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert type(a) is type(b), f.name
            assert a == b or (math.isnan(a) and math.isnan(b)), f.name

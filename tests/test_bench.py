import csv
import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from gpcommittee import (AggregatedPrediction, DataError, ExperimentConfig, PartitionKind,
                         RunRecord, aggregate, bench, consistency_sweep, grbcm_partition,
                         run_experiment, toy_generate, train)
from gpcommittee.bench import (_RULES, METHOD_CHOICES, SCHEMA_VERSION, _predict_method,
                               write_results_csv)


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


@pytest.mark.parametrize("settings, message", [
    (dict(csv_path="data.csv"), "toy data reads no csv_path"),
    (dict(dataset="csv", csv_path="data.csv", n_test=30), "csv data reads no n_test"),
])
def test_setting_the_data_source_never_reads_is_rejected(settings, message):
    # a toy run ignored csv_path, and a CSV run ignored n_test
    config = ExperimentConfig(n=120, m0=40, max_evals=3, methods=("poe",), **settings)
    with pytest.raises(ValueError, match=re.escape(message)):
        config.validate()
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment(config)


@pytest.mark.parametrize("settings, message", [
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(methods=()), "methods must name at least one of ('poe', 'gpoe', 'bcm', 'rbcm', "
                       "'npae', 'grbcm')"),
])
def test_negative_seed_and_empty_method_list_rejected(settings, message):
    # seed -1 stopped in numpy's generator with a traceback; no methods trained
    # a committee and scored nothing
    config = ExperimentConfig(n=120, m0=40, max_evals=3, **settings)
    with pytest.raises(ValueError, match=re.escape(message)):
        config.validate()
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment(config)


def test_the_rule_table_lists_every_method_in_order():
    assert tuple(_RULES) == METHOD_CHOICES
    assert METHOD_CHOICES == ("poe", "gpoe", "bcm", "rbcm", "npae", "grbcm")


def test_an_unknown_method_raises_instead_of_running_a_rule():
    ds = toy_generate(60, 10, seed=0)
    committee = train(ds.X_train, ds.y_train, grbcm_partition(ds.X_train, 2, seed=0), 3)
    with pytest.raises(KeyError, match="bogus"):
        _predict_method("bogus", committee, ds.X_test, ExperimentConfig(m0=30))


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


def test_grbcm_on_a_one_subset_random_partition_is_its_one_expert():
    # the one block of a random partition is its communication subset, and
    # GRBCM has no augmented experts, so no betas to summarize
    config = ExperimentConfig(n=200, M=1, max_evals=5, partition_kind="random",
                              methods=("poe", "grbcm"))
    poe, grbcm = run_experiment(config).records
    assert grbcm.error is None
    assert (grbcm.smse, grbcm.msll) == (poe.smse, poe.msll)
    assert (grbcm.beta_mean, grbcm.beta_min, grbcm.beta_max) == (None, None, None)
    # a disjoint partition has no communication subset
    _, failed = run_experiment(replace(config, partition_kind="disjoint")).records
    assert failed.error.startswith("MissingCommunicationSubset")


def test_workers_do_not_change_the_records():
    config = ExperimentConfig(n=200, n_test=40, m0=30, max_evals=3, methods=METHOD_CHOICES)

    def untimed(workers):
        return [replace(rec, train_time_seconds=0.0, predict_time_seconds=0.0)
                for rec in run_experiment(replace(config, workers=workers)).records]

    serial = untimed(1)
    assert all(rec.error is None for rec in serial)
    assert untimed(2) == serial


def test_csv_run_holds_out_the_default_test_fraction(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-2.0, 2.0, 20)
    rows = np.column_stack([x, np.sin(x) + 0.1 * rng.normal(size=20)])
    path = tmp_path / "data.csv"
    np.savetxt(path, rows, delimiter=",")
    config = ExperimentConfig(dataset="csv", csv_path=str(path), m0=8, max_evals=3,
                              methods=("poe", "grbcm"))
    result = run_experiment(config)
    assert [rec.error for rec in result.records] == [None, None]
    # the default test fraction 0.2 holds out 4 of the 20 rows, so the
    # partition covers the other 16 in two experts
    (part,) = result.partitions
    assert len(part.subsets) == 2
    assert sorted(np.concatenate(part.subsets)) == list(range(16))
    # the interior of the toy training range means nothing for CSV data
    (art,) = result.artifacts
    assert art.interior_mask is None


def written_cell(value) -> str:
    """The results.csv form of a record value: repr for a float, so it reads
    back exactly and nan stays nan; an empty cell for None."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


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
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [[written_cell(getattr(rec, f.name)) for f in fields(RunRecord)]
                    for rec in records]


def test_artifacts_keep_every_rules_predictions_per_repetition():
    config = ExperimentConfig(n=120, n_test=30, m0=40, max_evals=3, repetitions=2,
                              methods=METHOD_CHOICES)
    result = run_experiment(config)
    assert len(result.artifacts) == 2
    labels = ["poe", "gpoe_uniform", "bcm", "rbcm", "npae", "grbcm"]
    for art in result.artifacts:
        assert list(art.predictions) == labels
        for means, variances in art.predictions.values():
            assert means.shape == variances.shape == (30,)
            assert np.all(np.isfinite(means)) and np.all(variances > 0)
        assert art.interior_mask.shape == (30,)


def test_sweep_with_M_fixed_tabulates_the_run_records(tmp_path):
    config = ExperimentConfig(n=100, n_test=30, M=2, max_evals=3, repetitions=2,
                              methods=("poe", "bcm", "grbcm"), out_dir=str(tmp_path))
    report = consistency_sweep(config, [100, 160])
    assert (report["M"], report["m0"]) == (2, None)
    assert report["schema_version"] == SCHEMA_VERSION
    with open(tmp_path / "sweep.json") as fh:
        assert json.load(fh) == report
    assert "bcm_inflation" not in report
    # only the two calibration flags per rule: no trend verdicts
    assert set(report["flags"]) == {f"{label}_{flag}" for label in ("poe", "bcm", "grbcm")
                                    for flag in ("overconfident_at_max_n",
                                                 "conservative_all_n")}
    # each size's series are the records of a run at that size, with M kept
    run = run_experiment(replace(config, n=160, out_dir=None))
    assert all(len(part.subsets) == 2 for part in run.partitions)
    for label in ("poe", "bcm", "grbcm"):
        recs = [r for r in run.records if r.method == label]
        entry = report["methods"]["160"][label]
        assert entry["smse"] == [r.smse for r in recs]
        assert entry["msll"] == [r.msll for r in recs]
        assert entry["degeneracy_count"] == [r.degeneracy_count for r in recs]
        assert len(entry["median_interior_variance"]) == 2


def test_sweep_repetition_with_no_interior_test_point_is_a_data_error(tmp_path):
    # at seed 6, both test points of repetition 1 at n=200 lie outside the
    # training range: the median interior variance was numpy's NaN of an
    # empty slice, with a warning, and every flag read false
    config = ExperimentConfig(n=100, n_test=2, M=2, max_evals=3, repetitions=2, seed=6,
                              methods=("poe", "grbcm"), out_dir=str(tmp_path / "out"))
    with pytest.raises(DataError) as info:
        consistency_sweep(config, [100, 200])
    assert str(info.value) == (
        "n=200, repetition 1: no test point lies in the interior [0.0, 1.0] of the "
        "training range, so the median interior variance is undefined")
    assert not (tmp_path / "out").exists()


def test_sweep_checks_the_interior_before_it_trains(monkeypatch):
    # the interior depends only on the toy data, so the error of the test
    # above comes before any committee is trained, at n=100 as at n=200
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the interior check")

    monkeypatch.setattr(bench, "train", no_training)
    config = ExperimentConfig(n=100, n_test=2, M=2, max_evals=3, repetitions=2, seed=6,
                              methods=("poe", "grbcm"))
    with pytest.raises(DataError, match="n=200, repetition 1: no test point lies"):
        consistency_sweep(config, [100, 200])


def test_sweep_rejects_csv_data_and_invalid_sizes(tmp_path):
    config = ExperimentConfig(dataset="csv", csv_path=str(tmp_path / "data.csv"), m0=5)
    with pytest.raises(ValueError, match="csv data has a fixed size"):
        consistency_sweep(config, [100, 200])
    # a fixed M larger than the first size fails before any run
    config = ExperimentConfig(n=100, M=60, max_evals=3, out_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match="M=60 exceeds n=50"):
        consistency_sweep(config, [50, 100])
    assert not (tmp_path / "out").exists()

"""End-to-end experiment harness: train once, aggregate per method, score, time.

One repetition builds a dataset and partition from the repetition seed,
trains the committee once (training is shared by every aggregation method),
then times each method's prediction separately and scores SMSE/MSLL.
Results are written as CSV (one row per method and repetition), JSON (full
records plus config echo) and the partition documents. The consistency
sweep repeats a toy experiment over increasing training sizes, with the
expert count M or the subset size m0 held fixed, and tabulates the records.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import aggregate
from .data import (Dataset, TOY_NOISE_VAR, TOY_TRAIN_RANGE, denormalize_inputs,
                   denormalize_predictions, load_csv, toy_generate)
from .ensemble import ExpertEnsemble, experts_predict, prepare_grbcm, train
from .errors import DataError, GPCommitteeError
from .metrics import msll as msll_metric
from .metrics import smse as smse_metric
from .partition import Partition, disjoint_partition, grbcm_partition, random_partition

SCHEMA_VERSION = 7
# each rule's prediction (ensemble, Xstar, config); every name is looked up when
# called, so one patched in its module (as a traced run does) is the one run
_RULES = {
    "poe": lambda ensemble, Xstar, config: aggregate.poe(*experts_predict(ensemble, Xstar)),
    "gpoe": lambda ensemble, Xstar, config: aggregate.gpoe(
        *experts_predict(ensemble, Xstar), ensemble.hp.prior_variance, mode=config.gpoe_mode),
    "bcm": lambda ensemble, Xstar, config: aggregate.bcm(
        *experts_predict(ensemble, Xstar), ensemble.hp.prior_variance),
    "rbcm": lambda ensemble, Xstar, config: aggregate.rbcm(
        *experts_predict(ensemble, Xstar), ensemble.hp.prior_variance),
    "npae": lambda ensemble, Xstar, config: aggregate.npae(ensemble, Xstar),
    # augmented experts are part of the prediction phase by the committee's
    # complexity accounting, so they are built inside the timed region
    "grbcm": lambda ensemble, Xstar, config: aggregate.grbcm(
        ensemble, prepare_grbcm(ensemble), Xstar),
}
METHOD_CHOICES = tuple(_RULES)
PARTITION_CHOICES = ("random", "disjoint")
GPOE_MODES = ("uniform", "entropy")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    dataset: str = "toy"                  # "toy" or "csv"
    n: int = 1000                         # toy training size
    n_test: int | None = None             # toy test size (default max(200, n // 10))
    csv_path: str | None = None
    target_column: int | str = -1
    test_fraction: float = 0.2            # csv random test split
    partition_kind: str = "disjoint"
    M: int | None = None
    m0: int | None = None
    methods: tuple[str, ...] = ("poe", "gpoe", "bcm", "rbcm", "grbcm")
    gpoe_mode: str = "uniform"
    max_evals: int = 500
    seed: int = 0
    repetitions: int = 1
    # parallel slots (ExpertEnsemble.workers): training processes, prediction threads
    workers: int = 1
    out_dir: str | None = None

    def validate(self) -> None:
        if self.dataset not in ("toy", "csv"):
            raise ValueError(f"dataset must be 'toy' or 'csv', got {self.dataset!r}")
        if self.dataset == "csv" and not self.csv_path:
            raise ValueError("csv dataset requires csv_path")
        # a setting the data source never reads is a mistake, not a no-op
        unread = "csv_path" if self.dataset == "toy" else "n_test"
        if getattr(self, unread) is not None:
            raise ValueError(f"{self.dataset} data reads no {unread}")
        if self.dataset == "csv" and not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if (self.M is None) == (self.m0 is None):
            raise ValueError("give exactly one of M (experts) or m0 (subset size)")
        sizes = [("M", self.M), ("m0", self.m0), ("workers", self.workers),
                 ("max_evals", self.max_evals)]
        if self.dataset == "toy":
            sizes += [("n", self.n), ("n_test", self.n_test)]
        for name, value in sizes:
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.dataset == "toy":
            if self.n_test == 1:
                raise ValueError("n_test must be >= 2 to score SMSE, got 1")
            if self.M is not None and self.M > self.n:
                raise ValueError(f"M={self.M} exceeds n={self.n}")
        # numpy's generators take no negative seed
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.partition_kind not in PARTITION_CHOICES:
            raise ValueError(f"partition_kind must be one of {PARTITION_CHOICES}")
        if not self.methods:
            raise ValueError(f"methods must name at least one of {METHOD_CHOICES}")
        unknown = [m for m in self.methods if m not in METHOD_CHOICES]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHOD_CHOICES}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError(f"methods listed more than once: {repeated}")
        if self.gpoe_mode not in GPOE_MODES:
            raise ValueError(f"gpoe_mode must be one of {GPOE_MODES}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass(frozen=True)
class RunRecord:
    """Scores and timings for one (method, repetition) cell.

    The fields, in order, are the columns of ``results.csv``. ``opt_evals``
    and ``opt_stop`` are the committee's training evaluations and why its
    optimizer stopped (see :func:`gpcommittee.optimize.minimize`), the same
    for every method of a repetition.
    """

    method: str
    repetition: int
    seed: int
    smse: float
    msll: float
    train_time_seconds: float
    opt_evals: int
    opt_stop: str
    predict_time_seconds: float
    degeneracy_count: int
    beta_mean: float | None = None
    beta_min: float | None = None
    beta_max: float | None = None
    error: str | None = None


@dataclass
class RepArtifacts:
    """One repetition's fused predictions (original units), by method label.

    ``interior_mask`` marks the toy test points inside the training range;
    it is None for CSV data.
    """

    interior_mask: np.ndarray | None
    predictions: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[RunRecord]
    partitions: list[Partition]
    artifacts: list[RepArtifacts]


def _build_dataset(config: ExperimentConfig, rep_seed: int) -> Dataset:
    if config.dataset == "toy":
        n_test = config.n_test if config.n_test else max(200, config.n // 10)
        dataset = toy_generate(config.n, n_test, rep_seed)
    else:
        dataset = load_csv(config.csv_path, config.target_column,
                           test_fraction=config.test_fraction, seed=rep_seed)
    # SMSE divides by the test targets' variance: fail here, not after training
    if dataset.n_test < 2:
        raise DataError("the test split has fewer than 2 rows, so SMSE is undefined")
    if np.ptp(dataset.y_test) == 0.0:
        raise DataError("the test targets are constant, so SMSE is undefined")
    return dataset


def _resolve_M(config: ExperimentConfig, n: int) -> int:
    M = config.M if config.M is not None else max(1, round(n / config.m0))
    if M > n:
        raise DataError(f"M={M} exceeds the {n} training rows")
    return M


def _build_partition(config: ExperimentConfig, dataset: Dataset, M: int,
                     rep_seed: int) -> Partition:
    if config.partition_kind == "random":
        return random_partition(dataset.n_train, M, rep_seed)
    if "grbcm" in config.methods and M >= 2:
        # the hybrid scheme: every method shares the partition, whose
        # first subset is the random communication subset
        return grbcm_partition(dataset.X_train, M, rep_seed)
    return disjoint_partition(dataset.X_train, M, rep_seed)


def _predict_method(method: str, ensemble: ExpertEnsemble, Xstar: np.ndarray,
                    config: ExperimentConfig) -> aggregate.AggregatedPrediction:
    return _RULES[method](ensemble, Xstar, config)


def _interior_mask(config: ExperimentConfig, dataset: Dataset) -> np.ndarray | None:
    if config.dataset != "toy":
        return None
    x = denormalize_inputs(dataset.X_test, dataset.norm_stats)[:, 0]
    lo, hi = TOY_TRAIN_RANGE
    return (x >= lo) & (x <= hi)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all repetitions of one experiment, keeping each one's predictions.

    A method that raises a :class:`GPCommitteeError` (numerical breakdown,
    including a fused prediction with non-finite or non-positive variances)
    gets its failure recorded on its RunRecord (NaN scores plus the error
    message) and the remaining methods still run; any other exception is a
    programming error and stops the run. A test split that cannot be scored,
    or more experts than training rows, raises :class:`DataError` before
    training.
    """
    config.validate()
    records: list[RunRecord] = []
    partitions: list[Partition] = []
    artifacts: list[RepArtifacts] = []
    for rep in range(config.repetitions):
        rep_seed = config.seed + rep
        dataset = _build_dataset(config, rep_seed)
        M = _resolve_M(config, dataset.n_train)
        part = _build_partition(config, dataset, M, rep_seed)
        partitions.append(part)
        committee = train(dataset.X_train, dataset.y_train, part, config.max_evals,
                          workers=config.workers)
        art = RepArtifacts(interior_mask=_interior_mask(config, dataset))
        artifacts.append(art)
        for method in config.methods:
            records.append(_score_method(method, committee, dataset, config, rep, rep_seed,
                                         art))
    result = ExperimentResult(config=config, records=records, partitions=partitions,
                              artifacts=artifacts)
    if config.out_dir:
        write_outputs(result, config.out_dir)
    return result


def _label(config: ExperimentConfig, method: str) -> str:
    """The name a method's records and sweep entries go by."""
    return f"gpoe_{config.gpoe_mode}" if method == "gpoe" else method


def _score_method(method, committee, dataset, config, rep, rep_seed, art):
    label = _label(config, method)
    try:
        t0 = time.perf_counter()
        agg = _predict_method(method, committee, dataset.X_test, config)
        predict_time = time.perf_counter() - t0
    except GPCommitteeError as exc:
        return RunRecord(method=label, repetition=rep, seed=rep_seed,
                         smse=math.nan, msll=math.nan,
                         train_time_seconds=committee.train_time_seconds,
                         opt_evals=committee.opt_evals, opt_stop=committee.opt_stop,
                         predict_time_seconds=math.nan, degeneracy_count=0,
                         error=f"{type(exc).__name__}: {exc}")
    # original units only: SMSE and MSLL do not change under the affine map
    # from normalized units, so a normalized-scale score would repeat them
    stats = dataset.norm_stats
    means_eval, vars_eval = denormalize_predictions(agg.means, agg.variances, stats)
    art.predictions[label] = (means_eval, vars_eval)
    y_eval = dataset.y_test * stats.y_std + stats.y_mean
    train_mean, train_var = stats.y_mean, stats.y_std ** 2
    # a one-expert committee has no augmented experts, so no betas to summarize
    betas = agg.betas if agg.betas is not None and agg.betas.size else None
    return RunRecord(
        method=label,
        repetition=rep, seed=rep_seed,
        smse=smse_metric(means_eval, y_eval),
        msll=msll_metric(means_eval, vars_eval, y_eval, train_mean, train_var),
        train_time_seconds=committee.train_time_seconds,
        opt_evals=committee.opt_evals, opt_stop=committee.opt_stop,
        predict_time_seconds=predict_time,
        degeneracy_count=agg.degeneracy_count,
        beta_mean=None if betas is None else float(np.mean(betas)),
        beta_min=None if betas is None else float(np.min(betas)),
        beta_max=None if betas is None else float(np.max(betas)),
    )


# ---------------------------------------------------------------------------
# serialization

def write_results_csv(records: list[RunRecord], path: str) -> None:
    names = [f.name for f in dataclasses.fields(RunRecord)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        # csv writes a float as its exact repr and None as an empty cell
        writer.writerows(dataclasses.astuple(rec) for rec in records)


def write_outputs(result: ExperimentResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_results_csv(result.records, os.path.join(out_dir, "results.csv"))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": dataclasses.asdict(result.config),
        "records": [dataclasses.asdict(r) for r in result.records],
    }
    with open(os.path.join(out_dir, "results.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    partition_doc = {
        "schema_version": SCHEMA_VERSION,
        "repetitions": [p.to_json_dict() for p in result.partitions],
    }
    with open(os.path.join(out_dir, "partition.json"), "w") as fh:
        json.dump(partition_doc, fh)


# ---------------------------------------------------------------------------
# consistency sweep

def check_n_list(n_list: list[int]) -> None:
    """Raise ``ValueError`` unless the sweep sizes are strictly increasing and at least two."""
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing with at least two sizes")


def check_sweep_config(config: ExperimentConfig, n_list: list[int]) -> None:
    """Raise ``ValueError`` unless ``config`` is a valid experiment at every
    size in ``n_list`` and is toy data, whose training size a sweep can vary."""
    check_n_list(n_list)
    for n in n_list:
        replace(config, n=n).validate()
    if config.dataset != "toy":
        raise ValueError("sweep varies the toy training size; csv data has a fixed size")


def consistency_sweep(base_config: ExperimentConfig, n_list: list[int]) -> dict:
    """Run the toy experiment at each training size n, with the base
    config's M or m0 held fixed, and tabulate its records.

    Per n and method (config order), the report lists each repetition's
    SMSE, MSLL, degeneracy count and median interior predictive variance,
    plus two flags per method that compare that variance with the true
    noise variance. :func:`check_sweep_config` runs before the first run,
    and so does the interior check: each repetition's toy data is drawn at
    every n, and one with no test point inside ``TOY_TRAIN_RANGE``, which
    has no median interior variance, raises :class:`DataError` naming its n
    and repetition before anything is trained.
    When ``base_config.out_dir`` is set, the report is written there as
    sweep.json; the per-n runs write nothing.
    """
    check_sweep_config(base_config, n_list)
    labels = [_label(base_config, method) for method in base_config.methods]

    # the interior depends only on the toy data: check every run's before any trains
    for n in n_list:
        config = replace(base_config, n=n)
        for rep in range(config.repetitions):
            if not _interior_mask(config, _build_dataset(config, config.seed + rep)).any():
                raise DataError(f"n={n}, repetition {rep}: no test point lies in the interior "
                                f"{list(TOY_TRAIN_RANGE)} of the training range, so the median "
                                "interior variance is undefined")

    per_n: dict[int, dict] = {}
    for n in n_list:
        res = run_experiment(replace(base_config, n=n, out_dir=None))
        summary: dict[str, dict] = {}
        for label in labels:
            # run_experiment appends records repetition by repetition
            recs = [r for r in res.records if r.method == label]
            med_vars = []
            for art, rec in zip(res.artifacts, recs):
                if rec.error:
                    med_vars.append(math.nan)
                    continue
                _, variances = art.predictions[label]
                med_vars.append(float(np.median(variances[art.interior_mask])))
            summary[label] = {
                "smse": [r.smse for r in recs],
                "msll": [r.msll for r in recs],
                "median_interior_variance": med_vars,
                "degeneracy_count": [r.degeneracy_count for r in recs],
            }
        per_n[n] = summary

    flags: dict[str, bool] = {}
    for label in labels:
        final = per_n[n_list[-1]][label]["median_interior_variance"]
        flags[f"{label}_overconfident_at_max_n"] = all(
            v < 0.8 * TOY_NOISE_VAR for v in final)
        flags[f"{label}_conservative_all_n"] = all(
            v >= TOY_NOISE_VAR
            for n in n_list for v in per_n[n][label]["median_interior_variance"])

    report = {
        "schema_version": SCHEMA_VERSION,
        "M": base_config.M,
        "m0": base_config.m0,
        "n_list": list(n_list),
        "repetitions": base_config.repetitions,
        "true_noise_variance": TOY_NOISE_VAR,
        "partition_kind": base_config.partition_kind,
        "methods": {str(n): per_n[n] for n in n_list},
        "flags": flags,
    }
    if base_config.out_dir:
        os.makedirs(base_config.out_dir, exist_ok=True)
        with open(os.path.join(base_config.out_dir, "sweep.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    return report

"""End-to-end experiment harness: train once, aggregate per method, score, time.

One repetition builds a dataset and partition from the repetition seed,
trains the committee once (training is shared by every aggregation method),
then times each method's prediction separately and scores SMSE/MSLL.
Results are written as CSV (one row per method and repetition), JSON (full
records plus config echo) and the partition documents.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import time
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from . import aggregate
from .aggregate import PriorVariance
from .data import (Dataset, TOY_NOISE_VAR, TOY_TRAIN_RANGE, denormalize_inputs,
                   denormalize_predictions, load_csv, toy_generate)
from .ensemble import ExpertEnsemble, experts_predict, prepare_grbcm, train
from .errors import DataError, GPCommitteeError
from .gp import blas_threads
from .kernel import Hyperparams
from .metrics import msll as msll_metric
from .metrics import smse as smse_metric
from .optimize import OptimizerConfig
from .partition import (Partition, PartitionKind, disjoint_partition,
                        grbcm_partition, random_partition)

SCHEMA_VERSION = 4
METHOD_CHOICES = ("poe", "gpoe", "bcm", "rbcm", "npae", "grbcm")
PARTITION_CHOICES = ("random", "disjoint")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    dataset: str = "toy"                  # "toy" or "csv"
    n: int = 1000                         # toy training size
    n_test: int | None = None             # toy test size (default max(200, n // 10))
    csv_path: str | None = None
    target_column: int | str = -1
    test_fraction: float | None = 0.2     # csv random split; unread when split_files is given
    split_files: tuple[str, str] | None = None  # csv (train, test) row-index files
    partition_kind: str = "disjoint"
    M: int | None = None
    m0: int | None = None
    methods: tuple[str, ...] = ("poe", "gpoe", "bcm", "rbcm", "grbcm")
    gpoe_mode: str = "uniform"
    max_evals: int = OptimizerConfig.max_evals
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
        if self.dataset == "csv" and self.split_files is None and not (
                self.test_fraction is not None and 0.0 < self.test_fraction < 1.0):
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if (self.M is None) == (self.m0 is None):
            raise ValueError("give exactly one of M (experts) or m0 (subset size)")
        sizes = [("M", self.M), ("m0", self.m0), ("workers", self.workers)]
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
        if self.partition_kind not in PARTITION_CHOICES:
            raise ValueError(f"partition_kind must be one of {PARTITION_CHOICES}")
        unknown = [m for m in self.methods if m not in METHOD_CHOICES]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHOD_CHOICES}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError(f"methods listed more than once: {repeated}")
        if self.gpoe_mode not in ("uniform", "entropy"):
            raise ValueError("gpoe_mode must be 'uniform' or 'entropy'")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        # the optimizer settings are checked by their owner
        OptimizerConfig(max_evals=self.max_evals)


@dataclass(frozen=True)
class RunRecord:
    """Scores and timings for one (method, repetition) cell.

    The fields, in order, are the columns of ``results.csv``.
    """

    method: str
    repetition: int
    seed: int
    smse: float
    msll: float
    train_time_seconds: float
    predict_time_seconds: float
    degeneracy_count: int
    beta_mean: float | None = None
    beta_min: float | None = None
    beta_max: float | None = None
    error: str | None = None


@dataclass
class RepArtifacts:
    """Raw per-repetition material kept for sweep-level diagnostics."""

    hp: Hyperparams
    y_std: float
    interior_mask: np.ndarray
    f_test: np.ndarray | None
    predictions: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[RunRecord]
    partitions: list[Partition]
    artifacts: list[RepArtifacts] | None = None


def _build_dataset(config: ExperimentConfig, rep_seed: int) -> Dataset:
    if config.dataset == "toy":
        n_test = config.n_test if config.n_test else max(200, config.n // 10)
        dataset = toy_generate(config.n, n_test, rep_seed)
    else:
        # split files take precedence over the (default) test fraction
        fraction = None if config.split_files is not None else config.test_fraction
        dataset = load_csv(config.csv_path, config.target_column, test_fraction=fraction,
                           split_files=config.split_files, seed=rep_seed)
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
    wants_grbcm = "grbcm" in config.methods and M >= 2
    if config.partition_kind == "disjoint":
        if wants_grbcm:
            # the hybrid scheme: every method shares the partition, whose
            # first subset is the random communication subset
            return grbcm_partition(dataset.X_train, M, rep_seed)
        return disjoint_partition(dataset.X_train, M, rep_seed)
    part = random_partition(dataset.n_train, M, rep_seed)
    if wants_grbcm:
        # any block of a random partition is itself a uniform random subset
        part = part.with_communication(0)
    return part


def _predict_method(method: str, ensemble: ExpertEnsemble, Xstar: np.ndarray,
                    config: ExperimentConfig) -> aggregate.AggregatedPrediction:
    if method in ("poe", "gpoe", "bcm", "rbcm"):
        means, variances = experts_predict(ensemble, Xstar)
        prior = PriorVariance.from_hyperparams(ensemble.hp)
        if method == "poe":
            return aggregate.poe(means, variances)
        if method == "gpoe":
            return aggregate.gpoe(means, variances, prior, mode=config.gpoe_mode)
        if method == "bcm":
            return aggregate.bcm(means, variances, prior)
        return aggregate.rbcm(means, variances, prior)
    if method == "npae":
        return aggregate.npae(ensemble, Xstar)
    # augmented experts are part of the prediction phase by the committee's
    # complexity accounting, so they are fitted inside the timed region
    prepared = prepare_grbcm(ensemble)
    return aggregate.grbcm(prepared, Xstar)


def _interior_mask(config: ExperimentConfig, dataset: Dataset) -> np.ndarray:
    if config.dataset != "toy":
        return np.ones(dataset.n_test, dtype=bool)
    x = denormalize_inputs(dataset.X_test, dataset.norm_stats)[:, 0]
    lo, hi = TOY_TRAIN_RANGE
    return (x >= lo) & (x <= hi)


def run_experiment(config: ExperimentConfig,
                   collect_predictions: bool = False) -> ExperimentResult:
    """Run all repetitions of one experiment; optionally keep raw predictions.

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
    artifacts: list[RepArtifacts] | None = [] if collect_predictions else None
    for rep in range(config.repetitions):
        rep_seed = config.seed + rep
        dataset = _build_dataset(config, rep_seed)
        M = _resolve_M(config, dataset.n_train)
        part = _build_partition(config, dataset, M, rep_seed)
        partitions.append(part)
        opt = OptimizerConfig(max_evals=config.max_evals,
                              initial_hp=Hyperparams.default(dataset.input_dim))
        committee = train(dataset.X_train, dataset.y_train, part, opt, workers=config.workers)
        art = None
        if artifacts is not None:
            art = RepArtifacts(hp=committee.hp, y_std=dataset.norm_stats.y_std,
                               interior_mask=_interior_mask(config, dataset),
                               f_test=dataset.f_test)
            artifacts.append(art)
        # the prediction threads assume BLAS on one thread, as training does
        with blas_threads(1):
            for method in config.methods:
                records.append(_score_method(method, committee, dataset, config, rep,
                                             rep_seed, art))
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
                         predict_time_seconds=math.nan, degeneracy_count=0,
                         error=f"{type(exc).__name__}: {exc}")
    if art is not None:
        art.predictions[label] = (agg.means, agg.variances)
    # original units only: SMSE and MSLL do not change under the affine map
    # from normalized units, so a normalized-scale score would repeat them
    stats = dataset.norm_stats
    means_eval, vars_eval = denormalize_predictions(agg.means, agg.variances, stats)
    y_eval = dataset.y_test * stats.y_std + stats.y_mean
    train_mean, train_var = stats.y_mean, stats.y_std ** 2
    betas = agg.betas
    return RunRecord(
        method=label,
        repetition=rep, seed=rep_seed,
        smse=smse_metric(means_eval, y_eval),
        msll=msll_metric(means_eval, vars_eval, y_eval, train_mean, train_var),
        train_time_seconds=committee.train_time_seconds,
        predict_time_seconds=predict_time,
        degeneracy_count=agg.degeneracy_count,
        beta_mean=None if betas is None else float(np.mean(betas)),
        beta_min=None if betas is None else float(np.min(betas)),
        beta_max=None if betas is None else float(np.max(betas)),
    )


# ---------------------------------------------------------------------------
# serialization

def _cell(value) -> str:
    # repr round-trips a float exactly; None is an empty cell
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _parse_cell(text: str, kind) -> object:
    optional = typing.get_args(kind)
    if optional:
        if not text:
            return None
        kind = optional[0]
    return kind(text)


def write_results_csv(records: list[RunRecord], path: str) -> None:
    names = [f.name for f in dataclasses.fields(RunRecord)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for rec in records:
            writer.writerow([_cell(getattr(rec, name)) for name in names])


def read_results_csv(path: str) -> list[RunRecord]:
    """Parse a results CSV back into RunRecords (exact float round trip)."""
    kinds = typing.get_type_hints(RunRecord)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != list(kinds):
            raise ValueError(f"unexpected results header {header}")
        return [RunRecord(*(_parse_cell(text, kind) for text, kind in zip(row, kinds.values())))
                for row in reader]


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

def _strictly_decreasing(series: list[float]) -> bool:
    return all(b < a for a, b in zip(series, series[1:]))


def _per_rep_series(per_n: dict, method: str, key: str, rep: int) -> list[float]:
    return [per_n[n][method][key][rep] for n in sorted(per_n)]


# (flag name, summary key) of each series that should fall as n grows
_TRENDS = (("smse", "smse"), ("msll", "msll"), ("variance", "median_interior_variance"))


def check_n_list(n_list: list[int]) -> None:
    """Raise ``ValueError`` unless the sweep sizes are strictly increasing and at least two."""
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing with at least two sizes")


def consistency_sweep(base_config: ExperimentConfig, n_list: list[int]) -> dict:
    """Run the experiment at each n with m0 held fixed and report trends.

    The report carries per-method SMSE/MSLL and median interior predictive
    variance (original units) for every repetition and n, plus pass/fail
    flags for the monotone consistency trends. Methods appear in config
    order. When ``base_config.out_dir`` is set, the report is written there
    as sweep.json; the per-n runs write nothing.
    """
    check_n_list(n_list)
    if base_config.m0 is None:
        raise ValueError("sweep requires m0 (fixed subset size)")
    base_config.validate()
    reps = base_config.repetitions
    noise_var = TOY_NOISE_VAR if base_config.dataset == "toy" else None
    labels = [_label(base_config, method) for method in base_config.methods]

    per_n: dict[int, dict] = {}
    inflation: dict[int, dict] = {}
    for n in n_list:
        res = run_experiment(replace(base_config, n=n, out_dir=None),
                             collect_predictions=True)
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
                denorm = variances * art.y_std ** 2
                med_vars.append(float(np.median(denorm[art.interior_mask])))
            summary[label] = {
                "smse": [r.smse for r in recs],
                "msll": [r.msll for r in recs],
                "median_interior_variance": med_vars,
                "degeneracy_count": [r.degeneracy_count for r in recs],
            }
        per_n[n] = summary
        if "bcm" in summary and base_config.dataset == "toy":
            inflation[n] = _bcm_inflation(res)

    flags: dict[str, bool] = {}
    for label in labels:
        for name, key in _TRENDS:
            flags[f"{label}_{name}_strictly_decreasing"] = all(
                _strictly_decreasing(_per_rep_series(per_n, label, key, rep))
                for rep in range(reps))
        if noise_var is not None:
            final = per_n[n_list[-1]][label]["median_interior_variance"]
            flags[f"{label}_overconfident_at_max_n"] = all(
                v < 0.8 * noise_var for v in final)
            conservative = all(
                v >= noise_var
                for n in n_list for v in per_n[n][label]["median_interior_variance"])
            flags[f"{label}_conservative_all_n"] = conservative
    if "poe" in labels:
        flags["poe_msll_nondecreasing"] = all(
            all(b >= a for a, b in zip(s, s[1:]))
            for s in (_per_rep_series(per_n, "poe", "msll", rep) for rep in range(reps))
        )

    report = {
        "schema_version": SCHEMA_VERSION,
        "m0": base_config.m0,
        "n_list": list(n_list),
        "repetitions": reps,
        "true_noise_variance": noise_var,
        "partition_kind": base_config.partition_kind,
        "methods": {str(n): per_n[n] for n in n_list},
        "bcm_inflation": {str(n): inflation[n] for n in inflation},
        "flags": flags,
    }
    if base_config.out_dir:
        os.makedirs(base_config.out_dir, exist_ok=True)
        with open(os.path.join(base_config.out_dir, "sweep.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    return report


def _bcm_inflation(res: ExperimentResult) -> dict:
    """Least-squares slope of BCM means against the noiseless target, and the
    asymptotic inflation factor implied by the trained hyperparameters."""
    slopes, factors = [], []
    for art in res.artifacts:
        if "bcm" not in art.predictions:
            continue
        means, _ = art.predictions["bcm"]
        f = art.f_test[art.interior_mask]
        m = means[art.interior_mask]
        slopes.append(float(np.dot(m, f) / np.dot(f, f)))
        noise_prec = 1.0 / art.hp.noise_variance
        prior_prec = 1.0 / (art.hp.output_variance + art.hp.noise_variance)
        factors.append(float(noise_prec / (noise_prec - prior_prec)))
    return {"slope": slopes, "a_factor": factors}

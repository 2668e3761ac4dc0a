"""Workload definitions for the committee benchmark and the seeded 8-D table.

Every workload runs all six aggregation rules, because each end-to-end
accuracy metric is reported on every workload. The optimizer is the
library's default (conjugate gradients) under an evaluation budget that
every dataset exhausts, so training does the same amount of work whatever
the seed; the default budget of 500 converges after a data-dependent number
of evaluations, which made ``train_s`` spread too far from seed to seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

ALL_METHODS = ("poe", "gpoe", "bcm", "rbcm", "npae", "grbcm")
# cg needs 200+ evaluations to converge on every workload below
MAX_EVALS = 50
CSV_COLUMNS = 8


@dataclass(frozen=True)
class Workload:
    """One set of inputs: experiment settings plus how many datasets a run cycles.

    ``datasets`` distinct datasets are drawn from the run's seed; a run visits
    them in turn, and again while its time lasts. ``csv_rows`` is set for
    workloads whose data the benchmark writes as a CSV table during set-up.
    """

    name: str
    why: str
    datasets: int
    config: dict
    csv_rows: int | None = None


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="toy1d-train",
            why="1-D toy, 8 experts of 250 points, one worker: training dominates, "
                "the largest per-expert Cholesky and inverse",
            datasets=5,
            config=dict(dataset="toy", n=2000, m0=250, workers=1, max_evals=MAX_EVALS),
        ),
        Workload(
            name="toy1d-predict",
            why="1-D toy, 30 experts of 100 points, 2000 test points, two workers: "
                "prediction, NPAE and the thread-pool fan-out dominate",
            datasets=4,
            config=dict(dataset="toy", n=3000, m0=100, n_test=2000, workers=2,
                        max_evals=MAX_EVALS),
        ),
        Workload(
            name="csv8d-train",
            why="generated 8-D CSV, 10 experts of 150 points: 10 hyperparameters "
                "weight the kernel gradients, CSV loading and 8-D k-means",
            datasets=10,
            config=dict(dataset="csv", m0=150, test_fraction=1 / 3, workers=1,
                        max_evals=MAX_EVALS),
            csv_rows=2250,
        ),
    )
}


def dataset_seeds(seed: int, count: int) -> list[int]:
    """Independent per-dataset seeds drawn from the run's seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def csv8d_target(X: np.ndarray) -> np.ndarray:
    """Smooth 8-D target: strong in the first four inputs, weak linear in the rest."""
    return (np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 1] ** 2
            + np.cos(2.0 * X[:, 2] * X[:, 3])
            + 0.3 * X[:, 4:] @ np.linspace(1.0, 0.3, X.shape[1] - 4))


def write_csv8d(path: str, rows: int, seed: int, noise_std: float = 0.1) -> None:
    """Write ``rows`` samples of the 8-D table (header, 8 inputs, target last)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(rows, CSV_COLUMNS))
    y = csv8d_target(X) + rng.normal(0.0, noise_std, size=rows)
    header = ",".join([f"x{i + 1}" for i in range(CSV_COLUMNS)] + ["y"])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", header=header,
               comments="", fmt="%.17g")

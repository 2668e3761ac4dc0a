"""Gaussian process committee regression.

Factorized training of local GP experts with shared hyperparameters and six
rules for fusing their predictions (PoE, GPoE, BCM, RBCM, NPAE, GRBCM), plus
partitioning schemes, standardized metrics and a benchmark harness.
"""

from .aggregate import (AggregatedPrediction, PriorVariance, bcm, beta_entropy,
                        gpoe, grbcm, grbcm_fuse, npae, poe, rbcm)
from .bench import (ExperimentConfig, ExperimentResult, RunRecord,
                    consistency_sweep, read_results_csv, run_experiment)
from .data import (Dataset, NormStats, denormalize_inputs, denormalize_predictions,
                   load_csv, toy_function, toy_generate)
from .ensemble import (ExpertBlocks, ExpertEnsemble, experts_predict, factorized_nlml,
                       prepare_grbcm, train)
from .errors import (DataError, DegenerateTargets, GPCommitteeError, InvalidPartition,
                     InvalidStart, MissingCommunicationSubset, NumericalBreakdown)
from .gp import GPModel, fit, nlml, predict
from .kernel import Hyperparams, kernel_matrix, kernel_matrix_grads, se_kernel
from .metrics import msll, smse
from .optimize import OptimizeResult, OptimizerConfig, minimize
from .partition import (Partition, PartitionKind, disjoint_partition,
                        grbcm_partition, random_partition)

__version__ = "0.1.0"

__all__ = [
    "AggregatedPrediction", "PriorVariance",
    "bcm", "beta_entropy", "gpoe", "grbcm", "grbcm_fuse", "npae", "poe", "rbcm",
    "ExperimentConfig", "ExperimentResult", "RunRecord",
    "consistency_sweep", "read_results_csv", "run_experiment",
    "Dataset", "NormStats", "denormalize_inputs", "denormalize_predictions",
    "load_csv", "toy_function", "toy_generate",
    "ExpertBlocks", "ExpertEnsemble", "experts_predict", "factorized_nlml", "prepare_grbcm",
    "train",
    "DataError", "DegenerateTargets", "GPCommitteeError", "InvalidPartition",
    "InvalidStart", "MissingCommunicationSubset", "NumericalBreakdown",
    "GPModel", "fit", "nlml", "predict",
    "Hyperparams", "kernel_matrix", "kernel_matrix_grads", "se_kernel",
    "msll", "smse",
    "OptimizeResult", "OptimizerConfig", "minimize",
    "Partition", "PartitionKind", "disjoint_partition", "grbcm_partition",
    "random_partition",
]

import math

import numpy as np
import pytest

from gpcommittee import (AggregatedPrediction, AggregationMethod, ExperimentConfig,
                         aggregate, run_experiment)


def test_invalid_fused_prediction_recorded_per_method(monkeypatch):
    def rbcm_nan_variance(means, variances, prior):
        # AggregatedPrediction's own validation raises NumericalBreakdown here
        return AggregatedPrediction(means[0], np.full(means.shape[1], np.nan),
                                    AggregationMethod.RBCM)

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
])
def test_non_positive_committee_size_rejected(sizes, message):
    # m0=0 divided by zero and m0=-5 ran a one-expert committee
    config = ExperimentConfig(n=120, n_test=30, max_evals=3, **sizes)
    with pytest.raises(ValueError, match=message):
        config.validate()
    with pytest.raises(ValueError, match=message):
        run_experiment(config)

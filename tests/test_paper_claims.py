"""The paper's claims, graded against the exact GP rather than noisy targets.

Liu et al. (ICML 2018): GRBCM is consistent, PoE and BCM become
overconfident, and GPoE stays conservative. Each case trains a committee of
M = 4 experts on 1000 toy rows and compares every rule's noisy predictive
density with the exact GP's at the committee's hyperparameters, on the test
points inside the training range. Over seeds 0-11 the margins are wide: the
smallest KL ratio to GRBCM is 15x (hybrid) and 64x (random); the ratios of
PoE and BCM stay at or below 0.485 (hybrid) and 0.261 (random); GPoE's reads
at least 1.776 on the hybrid partition (only 1.023 on a random one, too thin
to assert); GRBCM's reads 1.008-1.024. The hybrid committee is trained again
on 2000 rows, where GRBCM's KL falls.
"""

import functools

import numpy as np
import pytest

from gpcommittee import (bcm, fit, gpoe, grbcm, grbcm_partition, poe, predict, prepare_grbcm,
                         random_partition, rbcm, toy_generate, train)
from gpcommittee.data import TOY_TRAIN_RANGE, denormalize_inputs
from gpcommittee.ensemble import experts_predict


def kl(mean_p, var_p, mean_q, var_q):
    """KL(p || q) between univariate Gaussians, pointwise."""
    return 0.5 * (np.log(var_q / var_p) + (var_p + (mean_p - mean_q) ** 2) / var_q - 1.0)


@functools.cache
def rules_against_exact_gp(kind, seed, n):
    """Per rule, the mean KL from the exact GP and the median variance ratio
    to it, over the interior test points, for n training rows."""
    ds = toy_generate(n, 1000, seed)
    if kind == "hybrid":
        part = grbcm_partition(ds.X_train, 4, seed)
    else:
        part = random_partition(ds.n_train, 4, seed)
    committee = train(ds.X_train, ds.y_train, part, 500, workers=2)
    x = denormalize_inputs(ds.X_test, ds.norm_stats)[:, 0]
    Xstar = ds.X_test[(x >= TOY_TRAIN_RANGE[0]) & (x <= TOY_TRAIN_RANGE[1])]
    exact_mean, exact_var = predict(fit(ds.X_train, ds.y_train, committee.hp), Xstar)
    means, variances = experts_predict(committee, Xstar)
    prior = committee.hp.prior_variance
    fused = {
        "poe": poe(means, variances),
        "gpoe": gpoe(means, variances, prior),
        "bcm": bcm(means, variances, prior),
        "rbcm": rbcm(means, variances, prior),
        "grbcm": grbcm(committee, prepare_grbcm(committee), Xstar),
    }
    return {rule: (float(np.mean(kl(exact_mean, exact_var, agg.means, agg.variances))),
                   float(np.median(agg.variances / exact_var)))
            for rule, agg in fused.items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["hybrid", "random"])
def test_rules_against_the_exact_gp(kind, seed):
    scores = rules_against_exact_gp(kind, seed, 1000)
    kl_of = {rule: value for rule, (value, _) in scores.items()}
    ratio = {rule: value for rule, (_, value) in scores.items()}
    # consistency: GRBCM is far closer to the exact GP than PoE, BCM and RBCM
    for rule in ("poe", "bcm", "rbcm"):
        assert kl_of["grbcm"] * 5 <= kl_of[rule], rule
    # overconfidence of PoE and BCM, GPoE's conservative variance, GRBCM's calibration
    assert ratio["poe"] < 0.6 and ratio["bcm"] < 0.6
    if kind == "hybrid":
        assert ratio["gpoe"] > 1.5
    assert 0.95 <= ratio["grbcm"] <= 1.05


def test_grbcm_kl_falls_as_the_training_set_grows():
    # consistency: with M = 4 fixed on the hybrid partition, GRBCM's mean KL
    # over seeds 0-2 falls from n=1000 to n=2000. Per seed it fell on 11 of
    # seeds 0-11 (seed 0 rose 1.09x), and the mean over each of the triples
    # 0-2, 3-5, 6-8 and 9-11 fell by at least 1.72x
    mean_kl = {n: np.mean([rules_against_exact_gp("hybrid", seed, n)["grbcm"][0]
                           for seed in (0, 1, 2)])
               for n in (1000, 2000)}
    assert mean_kl[2000] * 1.5 <= mean_kl[1000]

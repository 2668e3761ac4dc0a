import json

import numpy as np
import pytest
from scipy.stats import ks_2samp

from gpcommittee import (InvalidPartition, PartitionKind,
                         disjoint_partition, grbcm_partition, random_partition)
from gpcommittee.partition import _lloyd, _near_equal_targets


def assert_covers(part, n):
    part.validate(n)
    allidx = np.sort(np.concatenate(part.subsets))
    np.testing.assert_array_equal(allidx, np.arange(n))


def test_random_small_cover():
    part = random_partition(4, 2, seed=0)
    assert_covers(part, 4)
    assert sorted(s.size for s in part.subsets) == [2, 2]


def test_random_near_equal_sizes():
    part = random_partition(10, 3, seed=1)
    assert sorted((s.size for s in part.subsets), reverse=True) == [4, 3, 3]


def test_random_deterministic():
    a = random_partition(50, 4, seed=7)
    b = random_partition(50, 4, seed=7)
    for s, t in zip(a.subsets, b.subsets):
        np.testing.assert_array_equal(s, t)


def test_random_rejects_too_many_subsets():
    with pytest.raises(InvalidPartition):
        random_partition(3, 4, seed=0)


def test_disjoint_two_separated_blobs():
    rng = np.random.default_rng(2)
    X = np.concatenate([rng.normal(0.0, 0.1, size=50), rng.normal(10.0, 0.1, size=50)])[:, None]
    part = disjoint_partition(X, 2, seed=0)
    assert_covers(part, 100)
    blobs = [set(np.where(X[:, 0] < 5)[0]), set(np.where(X[:, 0] >= 5)[0])]
    got = [set(s.tolist()) for s in part.subsets]
    assert got == blobs or got == blobs[::-1]


def test_disjoint_single_subset():
    X = np.random.default_rng(3).normal(size=(12, 2))
    part = disjoint_partition(X, 1, seed=0)
    np.testing.assert_array_equal(part.subsets[0], np.arange(12))


def test_disjoint_single_subset_of_repeated_rows():
    # one k-means cluster keeps every row in order, however the rows repeat
    X = np.random.default_rng(3).normal(size=(12, 2))
    X[:6] = X[6:]
    part = disjoint_partition(X, 1, seed=0)
    assert len(part.subsets) == 1
    np.testing.assert_array_equal(part.subsets[0], np.arange(12))


def test_disjoint_singletons():
    X = np.random.default_rng(4).normal(size=(6, 1))
    part = disjoint_partition(X, 6, seed=0)
    assert_covers(part, 6)
    assert all(s.size == 1 for s in part.subsets)


def test_disjoint_rebalanced_sizes_near_equal():
    rng = np.random.default_rng(5)
    # lopsided density would give very uneven raw clusters
    X = np.concatenate([rng.normal(0, 0.2, size=180), rng.normal(6, 0.2, size=20)])[:, None]
    part = disjoint_partition(X, 5, seed=0)
    sizes = np.array([s.size for s in part.subsets])
    raw_labels, _ = _lloyd(X, 5, np.random.default_rng(0))
    raw_sizes = np.bincount(raw_labels, minlength=5)
    assert np.ptp(raw_sizes) > 1  # the raw k-means clusters are uneven here
    np.testing.assert_array_equal(sizes, _near_equal_targets(200, 5, raw_sizes))
    assert_covers(part, 200)


def test_grbcm_sizes_and_cover():
    X = np.random.default_rng(7).uniform(size=(1000, 2))
    part = grbcm_partition(X, 10, seed=0)
    assert part.kind is PartitionKind.GRBCM_HYBRID
    assert part.communication_index == 0
    assert part.subsets[0].size == 100
    assert_covers(part, 1000)


def test_grbcm_two_subsets():
    X = np.random.default_rng(8).uniform(size=(40, 1))
    part = grbcm_partition(X, 2, seed=0)
    assert part.subsets[0].size == 20
    comp = np.setdiff1d(np.arange(40), part.subsets[0])
    np.testing.assert_array_equal(part.subsets[1], comp)


def test_grbcm_needs_two_subsets():
    X = np.random.default_rng(9).uniform(size=(10, 1))
    with pytest.raises(InvalidPartition):
        grbcm_partition(X, 1, seed=0)


def test_grbcm_communication_subset_representative_mean():
    rng = np.random.default_rng(10)
    X = rng.uniform(size=(2000, 3))
    part = grbcm_partition(X, 8, seed=3)
    comm = X[part.subsets[0]]
    m0 = comm.shape[0]
    for dim in range(3):
        tol = 3.0 * X[:, dim].std() / np.sqrt(m0)
        assert abs(comm[:, dim].mean() - X[:, dim].mean()) < tol


def test_grbcm_communication_subset_ks_distance():
    # per-dimension KS statistic below the 1% critical value
    rng = np.random.default_rng(11)
    X = rng.uniform(size=(2000, 3))
    part = grbcm_partition(X, 8, seed=4)
    comm = X[part.subsets[0]]
    n1, n2 = comm.shape[0], X.shape[0]
    critical = 1.628 * np.sqrt((n1 + n2) / (n1 * n2))
    for dim in range(3):
        stat = ks_2samp(comm[:, dim], X[:, dim]).statistic
        assert stat < critical


def test_coverage_all_kinds_random_cases():
    rng = np.random.default_rng(12)
    for trial in range(15):
        n = int(rng.integers(5, 201))
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        M = int(rng.integers(1, min(n, 12) + 1))
        assert_covers(random_partition(n, M, seed=trial), n)
        assert_covers(disjoint_partition(X, M, seed=trial), n)
        if M >= 2:
            assert_covers(grbcm_partition(X, M, seed=trial), n)


def test_partition_json_round_trip():
    X = np.random.default_rng(13).uniform(size=(60, 2))
    part = grbcm_partition(X, 4, seed=5)
    doc = json.loads(json.dumps(part.to_json_dict()))
    assert list(doc) == ["kind", "seed", "communication_index", "subsets"]
    assert PartitionKind(doc["kind"]) is part.kind
    assert doc["seed"] == part.seed
    assert doc["communication_index"] == part.communication_index == 0
    assert len(doc["subsets"]) == len(part.subsets)
    for s, t in zip(doc["subsets"], part.subsets):
        np.testing.assert_array_equal(s, t)


def test_communication_index_follows_the_kind():
    # subset 0 of a random or hybrid partition is a uniform random sample;
    # a disjoint partition has no such subset
    X = np.random.default_rng(14).uniform(size=(30, 1))
    for M in (1, 3):
        assert random_partition(30, M, seed=0).communication_index == 0
        assert disjoint_partition(X, M, seed=0).communication_index is None
    assert grbcm_partition(X, 3, seed=0).communication_index == 0

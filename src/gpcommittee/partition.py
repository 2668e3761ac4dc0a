"""Training-set partitions: random blocks, k-means clusters, and the hybrid
scheme with one random communication subset plus clustered remainder.

The k-means here is a small deterministic Lloyd's loop (k-means++ seeding,
empty clusters repaired by stealing the farthest point from the largest
cluster). Cluster sizes are then rebalanced to near-equality by moving
boundary points toward the receiving centroid, since committee training
assumes every expert holds about n/M points. Every M from 1 to n - 1 takes
this path; M = n gives the one-point subsets in index order directly, where
k-means would cost O(n^2) and order them otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidPartition
from .kernel import as_rows

# Lloyd's loop stops after this many passes, or once no centroid moves farther
_LLOYD_MAX_ITER = 100
_LLOYD_TOL = 1e-8


class PartitionKind(str, Enum):
    RANDOM = "random"
    DISJOINT = "disjoint"
    GRBCM_HYBRID = "grbcm_hybrid"


@dataclass(frozen=True)
class Partition:
    """Assignment of training indices to M pairwise-disjoint subsets.

    The kind fixes GRBCM's communication subset, the uniform random sample
    its committee is built on (:attr:`communication_index`).
    """

    subsets: list[np.ndarray]
    kind: PartitionKind
    seed: int

    @property
    def communication_index(self) -> int | None:
        """0 for a random or hybrid partition, whose subset 0 is a uniform
        random sample (every block of a random partition is one); None for a
        disjoint partition, which has none."""
        return None if self.kind is PartitionKind.DISJOINT else 0

    def validate(self, n: int) -> None:
        """Check coverage, disjointness and non-emptiness."""
        seen = np.concatenate(self.subsets) if self.subsets else np.array([], dtype=int)
        if any(s.size == 0 for s in self.subsets):
            raise InvalidPartition("empty subset")
        if seen.size != n or not np.array_equal(np.sort(seen), np.arange(n)):
            raise InvalidPartition("subsets are not a disjoint cover of 0..n-1")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "seed": self.seed,
            "communication_index": self.communication_index,
            "subsets": [s.tolist() for s in self.subsets],
        }


def _check_counts(n: int, M: int, minimum_M: int = 1) -> None:
    if M < minimum_M or M > n:
        raise InvalidPartition(f"need {minimum_M} <= M <= n, got M={M}, n={n}")


def random_partition(n: int, M: int, seed: int) -> Partition:
    """Split a uniformly random permutation of 0..n-1 into M near-equal blocks."""
    _check_counts(n, M)
    perm = np.random.default_rng(seed).permutation(n)
    subsets = [np.sort(block) for block in np.array_split(perm, M)]
    return Partition(subsets=subsets, kind=PartitionKind.RANDOM, seed=seed)


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    closest = np.sum((X - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:
            idx = rng.integers(n)
        centroids[c] = X[idx]
        closest = np.minimum(closest, np.sum((X - centroids[c]) ** 2, axis=1))
    return centroids


def _repair_empty(X: np.ndarray, labels: np.ndarray, centroids: np.ndarray, k: int) -> None:
    sizes = np.bincount(labels, minlength=k)
    for c in np.where(sizes == 0)[0]:
        donors = np.where(sizes >= 2)[0]
        donor = donors[np.argmax(sizes[donors])]
        members = np.where(labels == donor)[0]
        far = members[np.argmax(np.sum((X[members] - centroids[donor]) ** 2, axis=1))]
        labels[far] = c
        sizes[donor] -= 1
        sizes[c] += 1


def _lloyd(X: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    centroids = _kmeans_pp_init(X, k, rng)
    for _ in range(_LLOYD_MAX_ITER):
        labels = np.argmin(cdist(X, centroids, metric="sqeuclidean"), axis=1)
        _repair_empty(X, labels, centroids, k)
        new_centroids = np.vstack([X[labels == c].mean(axis=0) for c in range(k)])
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < _LLOYD_TOL:
            break
    return labels, centroids


def _near_equal_targets(n: int, k: int, sizes: np.ndarray) -> np.ndarray:
    # clusters that are currently largest keep the +1 remainders: fewer moves
    base, rem = divmod(n, k)
    targets = np.full(k, base, dtype=int)
    if rem:
        targets[np.argsort(-sizes, kind="stable")[:rem]] += 1
    return targets


def _rebalance(X: np.ndarray, labels: np.ndarray, centroids: np.ndarray,
               targets: np.ndarray) -> None:
    """Move points from over-full to under-full clusters, nearest pairs first.

    ``surplus[c]``, the size of cluster c minus its target, is positive for
    an over-full cluster and negative for an under-full one; each move takes
    one from the source's and adds one to the destination's. A point already
    moved belongs to an under-full cluster, whose surplus is never positive,
    so it does not move twice.

    One pass reaches every target: an over-full cluster always keeps an
    unmoved point, so a surplus left beside a deficit would mean that pair
    was visited with both counts nonzero, and a point would have moved.
    """
    surplus = np.bincount(labels, minlength=targets.size) - targets
    over = np.flatnonzero(surplus > 0)
    under = np.flatnonzero(surplus < 0)
    cand = np.flatnonzero(np.isin(labels, over))
    d2 = cdist(X[cand], centroids[under], metric="sqeuclidean")
    # a list: indexing it per pair is several times faster than a numpy array
    surplus = surplus.tolist()
    for flat in np.argsort(d2, axis=None, kind="stable"):
        p_local, u_local = divmod(int(flat), under.size)
        point, dest = int(cand[p_local]), int(under[u_local])
        src = int(labels[point])
        if surplus[src] > 0 and surplus[dest] < 0:
            labels[point] = dest
            surplus[src] -= 1
            surplus[dest] += 1


def disjoint_partition(X: np.ndarray, M: int, seed: int) -> Partition:
    """Partition by k-means clusters on the inputs, rebalanced to near-equal sizes."""
    X = as_rows(X)
    n = X.shape[0]
    _check_counts(n, M)
    if M == n:
        subsets = [np.array([i]) for i in range(n)]
    else:
        rng = np.random.default_rng(seed)
        labels, centroids = _lloyd(X, M, rng)
        sizes = np.bincount(labels, minlength=M)
        _rebalance(X, labels, centroids, _near_equal_targets(n, M, sizes))
        subsets = [np.flatnonzero(labels == c) for c in range(M)]
    return Partition(subsets=subsets, kind=PartitionKind.DISJOINT, seed=seed)


def grbcm_partition(X: np.ndarray, M: int, seed: int) -> Partition:
    """One random communication subset of size n // M, k-means on the rest."""
    X = as_rows(X)
    n = X.shape[0]
    _check_counts(n, M, minimum_M=2)
    rng = np.random.default_rng(seed)
    comm = np.sort(rng.choice(n, size=n // M, replace=False))
    rest = np.setdiff1d(np.arange(n), comm, assume_unique=True)
    child_seed = int(rng.integers(2 ** 31))
    inner = disjoint_partition(X[rest], M - 1, child_seed)
    subsets = [comm] + [rest[s] for s in inner.subsets]
    return Partition(subsets=subsets, kind=PartitionKind.GRBCM_HYBRID, seed=seed)

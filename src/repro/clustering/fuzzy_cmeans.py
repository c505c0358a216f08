"""Fuzzy c-means clustering (Bezdek, 1984), from scratch.

Fuzzy c-means generalizes k-means by letting every point belong to every
cluster with a membership weight.  Given points ``X`` and a fuzzifier
``m > 1`` it alternates

* membership update:
  ``w_ij = 1 / sum_l (d_ij / d_il)^(2/(m-1))``
* centroid update:
  ``mu_j = sum_i w_ij^m x_i / sum_i w_ij^m``

until centroids move less than a tolerance.  Memberships per point sum
to one -- the constraint in the paper's Equation 1.

The paper writes the fuzzifier as ``f <= 1``; standard FCM requires the
exponent to exceed 1 (at ``m -> 1`` the memberships degenerate to hard
assignment and the update divides by zero), so we expose ``m`` with the
conventional default of 2 and document the deviation in README.md (design notes).

Layout and summation order: :func:`fcm_memberships`, the one membership
kernel (FCM, KFC's recenter and the objective), works on ``(k, n)``
matrices and adds the ``d`` squared differences and ``k`` ratio terms
in numpy's pairwise order, so it matches the former ``(n, k)`` code
(``tests/fcm_oracle.py``) bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.reduction import pairwise_sum


@dataclass(frozen=True)
class FuzzyCMeansResult:
    """Output of a fuzzy c-means run.

    Attributes:
        centroids: ``(k, d)`` array of cluster centres.
        memberships: ``(n, k)`` weight matrix; rows sum to 1.
        n_iterations: Iterations executed before convergence (or cap).
        objective: Final value of the weighted within-cluster distance
            objective ``sum_ij w_ij^m ||x_i - mu_j||^2`` (lower is better).
    """

    centroids: np.ndarray
    memberships: np.ndarray
    n_iterations: int
    objective: float

    def hard_assignments(self) -> np.ndarray:
        """Arg-max cluster index per point (for diagnostics only)."""
        return np.argmax(self.memberships, axis=1)


class FuzzyCMeans:
    """Fuzzy c-means estimator.

    Args:
        n_clusters: Number of clusters ``k``.
        m: Fuzzifier exponent, strictly greater than 1.
        max_iterations: Cap on alternation rounds.
        tol: Convergence threshold on the largest centroid displacement.
        seed: Seed for centroid initialization.
    """

    def __init__(self, n_clusters: int, m: float = 2.0,
                 max_iterations: int = 300, tol: float = 1e-6,
                 seed: int = 0) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        if not 1.0 < m < math.inf:
            raise ValueError(
                "fuzzifier m must be finite and > 1 (the paper's f <= 1 "
                "degenerates to hard clustering; see README.md design notes)"
            )
        self.n_clusters = n_clusters
        self.m = m
        self.max_iterations = max_iterations
        self.tol = tol
        self.seed = seed

    def fit(self, points: np.ndarray) -> FuzzyCMeansResult:
        """Cluster ``points`` (an ``(n, d)`` array).

        ``n`` must be at least ``n_clusters``.  Initialization picks
        distinct points as starting centroids (a k-means++-style spread
        pick), which is robust for geographic data.
        """
        x = np.asarray(points, dtype=float)
        if x.ndim != 2 or not x.shape[1]:
            raise ValueError(f"expected an (n, d) array, got shape {x.shape}")
        n = len(x)
        if n < self.n_clusters:
            raise ValueError(
                f"need at least {self.n_clusters} points, got {n}"
            )
        rng = np.random.default_rng(self.seed)
        centroids = self._init_centroids(x, rng)
        xt = np.ascontiguousarray(x.T)
        power = 1.0 / (self.m - 1.0)  # 2/(m-1) on squared distances

        n_iter = 0
        memberships = fcm_memberships(sq_distances(xt, centroids), power)
        for n_iter in range(1, self.max_iterations + 1):
            weights = np.ascontiguousarray(memberships.T) ** self.m
            denom = weights.sum(axis=0)
            # Guard against empty (zero-weight) clusters: re-seed them on
            # the point currently worst-covered by all centroids.
            dead = denom <= 1e-12
            if dead.any():
                coverage = memberships.max(axis=0)
                for j in np.flatnonzero(dead):
                    centroids[j] = x[int(np.argmin(coverage))]
                memberships = fcm_memberships(sq_distances(xt, centroids),
                                              power)
                weights = np.ascontiguousarray(memberships.T) ** self.m
                denom = weights.sum(axis=0)
            new_centroids = (weights.T @ x) / denom[:, None]
            shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
            centroids = new_centroids
            memberships = fcm_memberships(sq_distances(xt, centroids), power)
            if shift < self.tol:
                break

        memberships = np.ascontiguousarray(memberships.T)
        sq_dist = np.ascontiguousarray(sq_distances(xt, centroids).T)
        objective = float(((memberships ** self.m) * sq_dist).sum())
        return FuzzyCMeansResult(
            centroids=centroids,
            memberships=memberships,
            n_iterations=n_iter,
            objective=objective,
        )

    def _init_centroids(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """k-means++-style initialization: spread starting centroids out.

        Keeps a running minimum of squared distances to the chosen set,
        so each round costs one ``(n, d)`` pass against the *newest*
        centroid instead of an ``(n, chosen, d)`` tensor over all of
        them.  Bit-identical to the tensor form: the per-pair ``d``-axis
        summation order is unchanged and the min is exact, so the
        sampling probabilities (and thus the seeded draws) are too.
        """
        n = len(x)
        first = int(rng.integers(n))
        chosen = [first]
        dists = ((x - x[first]) ** 2).sum(axis=1)
        for _ in range(1, self.n_clusters):
            total = dists.sum()
            if total <= 0:
                # All remaining points coincide with chosen centroids.
                remaining = [i for i in range(n) if i not in chosen]
                pick = remaining[0] if remaining else first
            else:
                pick = int(rng.choice(n, p=dists / total))
            chosen.append(pick)
            np.minimum(dists, ((x - x[pick]) ** 2).sum(axis=1), out=dists)
        return x[chosen].astype(float).copy()


def sq_distances(points_t: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(k, n)`` squared distances from ``k`` centroids to the points of a
    C-contiguous ``(d, n)`` matrix, summed over ``d`` in numpy's order."""
    return pairwise_sum([(coord - c[:, None]) ** 2
                         for coord, c in zip(points_t, centroids.T)])


def fcm_memberships(dist: np.ndarray, power: float) -> np.ndarray:
    """FCM memberships ``w_ji = 1 / sum_l (dist_ji / dist_li)^power`` from
    a ``(k, n)`` matrix of distances (``power = 2/(m-1)``) or squared
    distances (``1/(m-1)``).  A point within ``1e-8`` of centroids
    belongs to them in equal shares.  Peak memory is ``O(k*n)``; the
    algebraic ``d^-p / sum d^-p`` would move low bits.  Overflow needs
    a ``dist_li`` below ``1e-8``, whose column is overwritten.
    """
    zero = dist <= 1e-8  # np.isclose(dist, 0.0), exact for dist >= 0
    safe = np.maximum(dist, 1e-300)
    out = np.empty_like(safe)
    with np.errstate(over="ignore"):
        for j, row in enumerate(safe):
            ratio = row / safe
            if power != 1.0:  # x ** 1.0 is x
                ratio **= power
            out[j] = 1.0 / pairwise_sum(ratio)
    hit = np.flatnonzero(zero.any(axis=0))
    if hit.size:
        hits = zero[:, hit]
        out[:, hit] = hits / hits.sum(axis=0)
    return out

"""The travel-package objective function (Equation 1).

    argmax_{M, W}   alpha * sum_j sum_i w_ij^f * (1 - dist(i, mu_j))
                  + sum_j max_{CI_j in V} [ beta  * sum_{i in CI_j} (1 - dist(i, mu_j))
                                          + gamma * sum_{i in CI_j} cos(item_i, g) ]
    subject to      sum_j w_ij = 1  for every item i

where ``dist`` is the *normalized* equirectangular distance (divided by
the largest observed distance, Section 3.2), ``M`` the ``k`` centroids,
``W`` the fuzzy membership matrix, and ``g`` the group profile.

This module only *evaluates* the objective for a candidate package; the
optimizer lives in :mod:`repro.core.kfc`.  Keeping evaluation separate
lets tests assert that KFC's output scores higher than baselines without
trusting the optimizer's own bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.arrays import CityArrays
from repro.core.package import TravelPackage
from repro.data.dataset import POIDataset
from repro.geo.distance import equirectangular_km
from repro.metrics.similarity import cosine
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex


@dataclass(frozen=True)
class ObjectiveWeights:
    """The user-dependent weights of Equation 1.

    Attributes:
        alpha: Weight of the fuzzy-clustering (representativity) term.
        beta: Weight of the CI-to-centroid proximity (cohesiveness) term.
        gamma: Weight of the personalization term.
        fuzzifier: FCM weighting exponent applied to memberships in the
            first term (the paper's ``f``; see the README design notes on ``f <= 1``).
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    fuzzifier: float = 2.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization."""
        return {"alpha": self.alpha, "beta": self.beta,
                "gamma": self.gamma, "fuzzifier": self.fuzzifier}

    @classmethod
    def from_dict(cls, data: dict) -> "ObjectiveWeights":
        """Inverse of :meth:`to_dict`; missing fields keep defaults."""
        defaults = cls()
        return cls(
            alpha=float(data.get("alpha", defaults.alpha)),
            beta=float(data.get("beta", defaults.beta)),
            gamma=float(data.get("gamma", defaults.gamma)),
            fuzzifier=float(data.get("fuzzifier", defaults.fuzzifier)),
        )


def fuzzy_memberships(distances: np.ndarray, fuzzifier: float = 2.0) -> np.ndarray:
    """FCM membership weights from an ``(n, k)`` distance matrix.

    ``w_ij = 1 / sum_l (d_ij / d_il)^(2/(m-1))``; rows sum to one.
    Items coinciding with a centroid get full membership there.

    The ratio sums are evaluated one centroid at a time over ``(n, k)``
    slices, so peak memory is ``O(n*k)`` instead of the ``(n, k, k)``
    tensor a broadcast materializes -- the difference between 20 MB and
    2 GB of transient allocation on a 10x city.  Each slice performs
    exactly the operations (division, power, last-axis pairwise sum)
    the tensor form performs on its ``[:, j, :]`` plane, so the result
    is **bit-identical** to the broadcast implementation; the cheaper
    algebraic form ``d_ij^-e / sum_l d_il^-e`` is *not* (it perturbs
    low-order bits, which the golden package fixtures would catch as
    centroid drift) and is deliberately avoided.
    """
    if fuzzifier <= 1.0:
        raise ValueError("fuzzifier must be > 1")
    d = np.asarray(distances, dtype=float)
    zero_rows = np.isclose(d, 0.0).any(axis=1)
    safe = np.maximum(d, 1e-300)
    exponent = 2.0 / (fuzzifier - 1.0)
    memberships = np.empty_like(safe)
    for j in range(safe.shape[1]):
        ratio = safe[:, j, None] / safe
        # The power overflows only when d_ij / d_il > 1e154 (at m = 2),
        # which needs d_il far below isclose's 1e-8 tolerance: such
        # rows are exactly the ones np.isclose(d, 0) flags and
        # overwrites below, and inf -> 0 membership is the right limit.
        with np.errstate(over="ignore"):
            memberships[:, j] = 1.0 / (ratio ** exponent).sum(axis=1)
    if zero_rows.any():
        for i in np.flatnonzero(zero_rows):
            hits = np.isclose(d[i], 0.0)
            memberships[i] = hits / hits.sum()
    return memberships


def normalized_distances_to_centroids(dataset: POIDataset,
                                      centroids: np.ndarray,
                                      arrays: CityArrays | None = None) -> np.ndarray:
    """``(n_items, k)`` equirectangular distances scaled by the dataset's
    largest pairwise distance (the paper's normalizer).

    With a :class:`~repro.core.arrays.CityArrays` bundle the coordinate
    columns and the normalizer come from the precompute instead of
    being rebuilt from the POI objects (same values, same result).
    """
    cents = np.asarray(centroids, dtype=float)
    if arrays is not None:
        lats = arrays.lats[:, None]
        lons = arrays.lons[:, None]
        largest = arrays.max_distance_km
    else:
        coords = dataset.coordinates()
        lats = coords[:, 0][:, None]
        lons = coords[:, 1][:, None]
        largest = dataset.max_distance_km
    dist = equirectangular_km(
        lats, lons, cents[:, 0][None, :], cents[:, 1][None, :],
    )
    if largest > 0:
        dist = dist / largest
    return np.clip(dist, 0.0, None)


def evaluate_objective(dataset: POIDataset, package: TravelPackage,
                       profile: GroupProfile, item_index: ItemVectorIndex,
                       weights: ObjectiveWeights = ObjectiveWeights(),
                       arrays: CityArrays | None = None) -> float:
    """The value of Equation 1 for a candidate package.

    The membership matrix ``W`` is reconstructed from the package's
    centroids with the standard FCM update (the optimal ``W`` for fixed
    ``M``), so the score depends only on the package itself.  Passing
    the city's :class:`~repro.core.arrays.CityArrays` avoids rebuilding
    the coordinate matrix for the clustering term.
    """
    centroids = package.centroids()
    dist = normalized_distances_to_centroids(dataset, centroids,
                                             arrays=arrays)
    closeness = 1.0 - np.clip(dist, 0.0, 1.0)

    memberships = fuzzy_memberships(dist, weights.fuzzifier)
    clustering_term = float(
        ((memberships ** weights.fuzzifier) * closeness).sum()
    )

    largest = (arrays.max_distance_km if arrays is not None
               else dataset.max_distance_km)
    ci_term = 0.0
    for j, ci in enumerate(package.composite_items):
        mu_lat, mu_lon = ci.centroid
        if not ci.pois:
            continue
        # One vectorized distance pass per CI; the elementwise ops match
        # the former per-POI scalar calls bit for bit, and the scalar
        # accumulation below keeps the exact summation order.
        dists = equirectangular_km(
            np.array([p.lat for p in ci.pois], dtype=float),
            np.array([p.lon for p in ci.pois], dtype=float),
            mu_lat, mu_lon,
        )
        if largest > 0:
            dists = dists / largest
        for poi, d in zip(ci.pois, dists):
            ci_term += weights.beta * (1.0 - min(float(d), 1.0))
            ci_term += weights.gamma * cosine(
                item_index.vector(poi), profile.vector(poi.cat)
            )
    return weights.alpha * clustering_term + ci_term

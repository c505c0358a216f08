"""The three optimization dimensions (Section 4.2).

These functions deliberately take plain ingredients -- centroid arrays,
lists of POI lists, profile/index objects -- rather than a
``TravelPackage``, so the metrics layer stays decoupled from the core;
:mod:`repro.core.package` offers convenience wrappers.

* ``representativity`` (Eq. 2): summed pairwise distance between CI
  centroids -- the farther apart the CIs, the better the TP covers the
  city.
* ``cohesiveness`` (Eq. 3): a constant ``S`` minus the summed pairwise
  POI distance within each CI -- compact CIs score high.
* ``personalization`` (Eq. 4): summed cosine between every item vector
  and the group profile vector of the item's category.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.data.poi import CATEGORIES, POI
from repro.geo.distance import equirectangular_km
from repro.metrics.similarity import _NORM_HIGH, _NORM_LOW, cosine
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex
from repro.reduction import ordered_sum

#: ``np.triu_indices(n, 1)``, the within-group pair indices, for the
#: CI and package sizes requests use.  Sizes are client-controlled, so
#: larger ones are computed per call rather than cached.
_PAIRS = {n: np.triu_indices(n, 1) for n in range(33)}


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = _PAIRS.get(n)
    return pairs if pairs is not None else np.triu_indices(n, 1)


def _pair_distance_sum(lat: np.ndarray, lon: np.ndarray,
                       sizes: Sequence[int]) -> float:
    """Summed distance over every within-group pair, where ``lat`` /
    ``lon`` hold consecutive groups of the given ``sizes``.

    One ``equirectangular_km`` call over all pairs (``(a, b)`` with
    ``a < b``, row-major per group, groups in order), then the terms
    added left to right: the order of a nested scalar loop.
    """
    firsts, seconds = [], []
    offset = 0
    for n in sizes:
        a, b = _pairs(n)
        firsts.append(a + offset)
        seconds.append(b + offset)
        offset += n
    if not firsts:
        return 0.0
    a, b = np.concatenate(firsts), np.concatenate(seconds)
    return ordered_sum(
        equirectangular_km(lat[a], lon[a], lat[b], lon[b]).tolist())


def representativity(centroids: np.ndarray) -> float:
    """Equation 2: ``sum_{l<=j} dist(mu_l, mu_j)`` over CI centroids.

    Args:
        centroids: ``(k, 2)`` array of ``(lat, lon)`` CI centroids.

    The diagonal terms of the paper's double sum are zero, so this is
    the sum over unordered centroid pairs.
    """
    arr = np.asarray(centroids, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (k, 2) centroids, got shape {arr.shape}")
    return _pair_distance_sum(arr[:, 0], arr[:, 1], (len(arr),))


def raw_cohesiveness_sum(composite_items: Iterable[Sequence[POI]]) -> float:
    """The inner sum of Equation 3: total pairwise POI distance within
    each CI, summed over CIs.  Lower means more compact."""
    cis = [list(items) for items in composite_items]
    lat = np.array([p.lat for pois in cis for p in pois], dtype=float)
    lon = np.array([p.lon for pois in cis for p in pois], dtype=float)
    return _pair_distance_sum(lat, lon, [len(pois) for pois in cis])


def raw_cohesiveness_rows(lat: np.ndarray, lon: np.ndarray) -> float:
    """:func:`raw_cohesiveness_sum` of CIs given as ``(k, n)`` coordinate
    matrices, row ``c`` holding CI ``c``'s members in order: the same
    pairs in the same order, one ``(k, pairs)`` distance call."""
    a, b = _pairs(lat.shape[1])
    distances = equirectangular_km(lat[:, a], lon[:, a], lat[:, b], lon[:, b])
    return ordered_sum(distances.ravel().tolist())


def cohesiveness(composite_items: Iterable[Sequence[POI]], s_constant: float) -> float:
    """Equation 3: ``S - sum_CI sum_{i,j in CI} dist(i, j)``.

    Args:
        composite_items: The CIs, each a sequence of POIs.
        s_constant: The paper's ``S`` -- the maximum observed aggregate
            distance in a sweep, making cohesiveness non-negative and
            "higher is better".
    """
    return s_constant - raw_cohesiveness_sum(composite_items)


def personalization(composite_items: Iterable[Sequence[POI]],
                    profile: GroupProfile,
                    item_index: ItemVectorIndex) -> float:
    """Equation 4: ``sum_CI sum_i cos(item_vector(i), g_cat(i))``.

    Each POI is compared against the group profile vector of its *own*
    category.  The terms are :func:`~repro.metrics.similarity.cosine`'s
    exactly: each uses 1-D norms (the item's memoized one, the profile
    category's computed once), and a pair with a norm outside the
    range ``cosine`` takes as is goes through ``cosine`` itself.
    """
    profile_vectors = {}
    for cat in CATEGORIES:
        g = profile.vector(cat)
        profile_vectors[cat] = (g, np.linalg.norm(g))
    terms = []
    for items in composite_items:
        for poi in items:
            v, norm_v = item_index.vector_and_norm(poi.id)
            g, norm_g = profile_vectors[poi.cat]
            if (v.shape == g.shape and _NORM_LOW <= norm_v <= _NORM_HIGH
                    and _NORM_LOW <= norm_g <= _NORM_HIGH):
                terms.append(float(np.dot(v, g) / float(norm_v * norm_g)))
            else:
                terms.append(cosine(v, g))
    return ordered_sum(terms)

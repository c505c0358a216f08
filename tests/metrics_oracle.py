"""The scalar Section 4.2 metrics, kept as a test oracle.

``repro.metrics.dimensions`` computes each metric with one distance
call per package (cohesiveness, representativity) and memoized item
norms (personalization), then adds the terms left to right by hand.
This module is the reference it must match bit for bit: the former
scalar functions, one ``equirectangular_km`` or ``cosine`` call per
term, accumulated in a Python loop.  The bodies are verbatim.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.data.poi import POI
from repro.geo.distance import equirectangular_km
from repro.metrics.similarity import cosine
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex


def representativity(centroids: np.ndarray) -> float:
    """Equation 2: ``sum_{l<=j} dist(mu_l, mu_j)`` over CI centroids."""
    arr = np.asarray(centroids, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (k, 2) centroids, got shape {arr.shape}")
    total = 0.0
    for l in range(len(arr)):
        for j in range(l + 1, len(arr)):
            total += float(equirectangular_km(arr[l, 0], arr[l, 1],
                                              arr[j, 0], arr[j, 1]))
    return total


def raw_cohesiveness_sum(composite_items: Iterable[Sequence[POI]]) -> float:
    """The inner sum of Equation 3: total pairwise POI distance within
    each CI, summed over CIs."""
    total = 0.0
    for items in composite_items:
        pois = list(items)
        for a in range(len(pois)):
            for b in range(a + 1, len(pois)):
                total += float(equirectangular_km(pois[a].lat, pois[a].lon,
                                                  pois[b].lat, pois[b].lon))
    return total


def personalization(composite_items: Iterable[Sequence[POI]],
                    profile: GroupProfile,
                    item_index: ItemVectorIndex) -> float:
    """Equation 4: ``sum_CI sum_i cos(item_vector(i), g_cat(i))``."""
    total = 0.0
    for items in composite_items:
        for poi in items:
            total += cosine(item_index.vector(poi), profile.vector(poi.cat))
    return total

"""The object-path assembly scorer, kept as a test oracle.

``repro.core.assembly`` scores candidates only against the columnar
:class:`~repro.core.arrays.CityArrays` bundle.  This module is the
reference it must match bit for bit: it scores each category's ``POI``
objects one centroid at a time, sorts ``(-score, id)`` tuples in
Python, and hands the pools to the production greedy fill + budget
repair (``repro.core.assembly._finish_assembly``), so only the scoring
and pool-building half is re-implemented here.

:func:`assemble_composite_items` has the kernel's signature (``arrays``
is accepted and ignored), so a test can drop it in for
``repro.core.kfc.assemble_composite_items`` and run whole KFC builds on
the object path.
"""

from __future__ import annotations

import numpy as np

from repro.core.assembly import (
    _Candidate,
    _check_feasible_categories,
    _finish_assembly,
)
from repro.core.composite import CompositeItem
from repro.core.query import GroupQuery
from repro.data.dataset import POIDataset
from repro.data.poi import POI, Category
from repro.geo.distance import equirectangular_km
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex


def score_candidates(pois: tuple[POI, ...], centroid: tuple[float, float],
                     profile: GroupProfile, item_index: ItemVectorIndex,
                     beta: float, gamma: float,
                     max_distance_km: float) -> list[_Candidate]:
    """Score same-category POIs against a centroid and profile.

    ``score = beta * (1 - dist_norm) + gamma * cos(item, g_cat)`` --
    exactly the per-item contribution of Equation 1's CI term.
    """
    if not pois:
        return []
    lats = np.array([p.lat for p in pois])
    lons = np.array([p.lon for p in pois])
    dist = equirectangular_km(lats, lons, centroid[0], centroid[1])
    if max_distance_km > 0:
        dist = dist / max_distance_km
    closeness = 1.0 - np.clip(dist, 0.0, 1.0)

    profile_vec = profile.vector(pois[0].cat)
    norm_g = float(np.linalg.norm(profile_vec))
    vectors = item_index.matrix(list(pois))
    norms = np.linalg.norm(vectors, axis=1)
    if norm_g == 0.0:
        sims = np.zeros(len(pois))
    else:
        safe = np.where(norms == 0.0, 1.0, norms)
        sims = (vectors @ profile_vec) / (safe * norm_g)
        sims[norms == 0.0] = 0.0
    total = beta * closeness + gamma * sims
    return [_Candidate(poi=poi, score=float(s)) for poi, s in zip(pois, total)]


def _pool_from_objects(dataset: POIDataset, cat: Category,
                       centroid: tuple[float, float], profile: GroupProfile,
                       item_index: ItemVectorIndex, beta: float, gamma: float,
                       candidate_pool: int,
                       has_budget: bool) -> list[_Candidate]:
    """One category's candidate pool via the object-path reference."""
    pois = dataset.by_category(cat)
    scored = score_candidates(pois, centroid, profile, item_index,
                              beta, gamma, dataset.max_distance_km)
    scored.sort(key=lambda c: (-c.score, c.poi.id))
    pool = scored[:candidate_pool]
    if has_budget:
        # Keep cheap candidates reachable for the repair phase.
        cheapest = sorted(scored, key=lambda c: (c.cost, c.poi.id))[:candidate_pool]
        seen = {c.poi.id for c in pool}
        pool += [c for c in cheapest if c.poi.id not in seen]
    return pool


def assemble_composite_item(dataset: POIDataset,
                            centroid: tuple[float, float], query: GroupQuery,
                            profile: GroupProfile,
                            item_index: ItemVectorIndex,
                            beta: float = 1.0, gamma: float = 1.0,
                            candidate_pool: int = 60) -> CompositeItem:
    """The best valid CI around ``centroid``, scored on the object path."""
    requested = query.requested_categories()
    _check_feasible_categories(dataset, query, requested)
    centroid = (float(centroid[0]), float(centroid[1]))
    per_category = {
        cat: _pool_from_objects(dataset, cat, centroid, profile, item_index,
                                beta, gamma, candidate_pool,
                                query.has_budget)
        for cat in requested
    }
    return _finish_assembly(per_category, query, centroid)


def assemble_composite_items(dataset: POIDataset, centroids,
                             query: GroupQuery, profile: GroupProfile,
                             item_index: ItemVectorIndex,
                             beta: float = 1.0, gamma: float = 1.0,
                             candidate_pool: int = 60,
                             arrays=None) -> list[CompositeItem]:
    """One object-path CI per centroid (drop-in for the batched kernel;
    ``arrays`` is ignored)."""
    return [assemble_composite_item(dataset, (lat, lon), query, profile,
                                    item_index, beta=beta, gamma=gamma,
                                    candidate_pool=candidate_pool)
            for lat, lon in np.asarray(centroids, dtype=float)]

"""The object-path assembly scorer, kept as a test oracle.

``repro.core.assembly`` scores candidates only against the columnar
:class:`~repro.core.arrays.CityArrays` bundle.  This module is the
reference it must match bit for bit: it scores each category's ``POI``
objects one centroid at a time, sorts ``(-score, id)`` tuples in
Python, builds ``_Candidate`` pools, and runs the greedy fill + budget
repair as a Python scan over every ``(category, slot, alternative)``
triple.  It shares only the up-front category check with the kernel,
so the properties check scoring, pool building *and* repair.  Like the
kernel, it sizes each pool at ``max(candidate_pool, count)`` and raises
when rounding leaves even the cheapest fill over budget.

:func:`assemble_composite_items` has the kernel's signature (``arrays``
is accepted and ignored), so a test can drop it in for
``repro.core.kfc.assemble_composite_items`` and run whole KFC builds on
the object path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.assembly import InfeasibleQueryError, _check_feasible_categories
from repro.core.composite import CompositeItem
from repro.core.query import GroupQuery
from repro.data.dataset import POIDataset
from repro.data.poi import POI, Category
from repro.geo.distance import equirectangular_km
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex


@dataclass(frozen=True)
class _Candidate:
    """A scored candidate POI for one CI."""

    poi: POI
    score: float

    @property
    def cost(self) -> float:
        return self.poi.cost


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


def _finish_assembly(per_category: dict[Category, list[_Candidate]],
                     query: GroupQuery,
                     centroid: tuple[float, float]) -> CompositeItem:
    """Greedy fill + budget repair over already-scored pools."""
    # Cheapest conforming selection bounds feasibility.
    if query.has_budget:
        floor = sum(
            sum(sorted(c.cost for c in pool)[: query.count(cat)])
            for cat, pool in per_category.items()
        )
        if floor > query.budget:
            raise InfeasibleQueryError(
                f"even the cheapest valid CI costs {floor:.2f}, over the "
                f"budget {query.budget:.2f}"
            )

    # Greedy fill: best-scoring items per category.
    selected: dict[Category, list[_Candidate]] = {
        cat: pool[: query.count(cat)] for cat, pool in per_category.items()
    }

    if query.has_budget:
        _repair_budget(selected, per_category, query)

    pois = [c.poi for pool in selected.values() for c in pool]
    return CompositeItem(pois, centroid=centroid)


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
                                beta, gamma,
                                max(candidate_pool, query.count(cat)),
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


def _repair_budget(selected: dict[Category, list[_Candidate]],
                   per_category: dict[Category, list[_Candidate]],
                   query: GroupQuery) -> None:
    """Swap items for cheaper same-category alternatives until the CI
    fits the budget.

    Each round applies the swap saving the most cost per unit of score
    lost.  Terminates: every swap strictly reduces the affected slot's
    cost through its pool's at most ``len(pool)`` distinct values, so
    ``sum(count(cat) * len(pool))`` passes suffice; the explicit bound
    is a guard against pathological inputs, after which the cheapest
    conforming selection (already verified feasible) is installed
    outright.  The cost-sorted pools that fallback needs are computed
    once up front, not inside the swap loop.
    """
    cheapest_pools: dict[Category, list[_Candidate]] = {
        cat: sorted(pool, key=lambda c: (c.cost, c.poi.id))
        for cat, pool in per_category.items()
    }

    def cheapest_fill() -> None:
        """Install the cheapest conforming selection, or raise if even
        it is over budget."""
        for cat, cheapest in cheapest_pools.items():
            picked: list[_Candidate] = []
            used: set[int] = set()
            for cand in cheapest:
                if cand.poi.id not in used:
                    picked.append(cand)
                    used.add(cand.poi.id)
                if len(picked) == query.count(cat):
                    break
            selected[cat] = picked
        # The floor sums the same costs in another order, so rounding
        # alone can leave this selection over budget.
        if total_cost() > query.budget:
            raise InfeasibleQueryError(
                f"the cheapest valid CI costs {total_cost()!r} after "
                f"rounding, over the budget {query.budget!r}"
            )

    def total_cost() -> float:
        return sum(c.cost for pool in selected.values() for c in pool)

    max_passes = sum(query.count(cat) * len(pool)
                     for cat, pool in per_category.items())
    passes = 0
    while total_cost() > query.budget:
        if passes >= max_passes:
            cheapest_fill()
            return
        passes += 1
        best: tuple[float, Category, int, _Candidate] | None = None
        for cat, chosen in selected.items():
            chosen_ids = {c.poi.id for c in chosen}
            for slot, current in enumerate(chosen):
                for alt in per_category[cat]:
                    if alt.poi.id in chosen_ids or alt.cost >= current.cost:
                        continue
                    saving = current.cost - alt.cost
                    loss = max(current.score - alt.score, 0.0)
                    ratio = saving / (loss + 1e-9)
                    if best is None or ratio > best[0]:
                        best = (ratio, cat, slot, alt)
        if best is None:
            # No cheaper alternative anywhere: fall back to the cheapest
            # conforming selection outright (known feasible).
            cheapest_fill()
            return
        _, cat, slot, alt = best
        selected[cat][slot] = alt

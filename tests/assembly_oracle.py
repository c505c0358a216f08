"""The object-path assembly scorer, kept as a test oracle.

``repro.core.assembly`` scores candidates only against the columnar
:class:`~repro.core.arrays.CityArrays` bundle.  This module is the
reference it must match bit for bit: it scores each category's ``POI``
objects one centroid at a time, sorts ``(-score, id)`` tuples in
Python, builds ``_Candidate`` pools, and runs the greedy fill + budget
repair as a Python scan over every ``(category, slot, alternative)``
triple.  It shares only the up-front category check with the kernel,
so the properties check scoring, pool building *and* repair.  Like the
kernel, it sizes each pool at ``max(candidate_pool, count)`` and adds
costs strictly left to right, the feasibility floor as the cheapest
fill's costs in ``(cost, id)`` order, so a floor within budget means
the cheapest fill is within budget too.

:func:`assemble_composite_items` has the kernel's signature (``arrays``
and ``gsims`` are accepted and ignored), so a test can drop it in for
``repro.core.kfc.assemble_composite_items`` and run whole KFC builds on
the object path.

The second half keeps the array kernel's former per-category,
per-centroid and per-slot pieces verbatim -- :func:`_totals_matrix`
(one distance pass per category), :func:`_pools_batched` and
:func:`_top_rows` (one partition + lexsort per centroid),
:func:`_repair_budget_per_slot` with its per-slot :func:`_best_swap`,
and :func:`_budget_pools_per_centroid` with
:func:`_repair_budget_padded` and :func:`_best_swap_padded` (one
``_Pool`` per centroid, one padded ``(slots, max pool)`` repair per
centroid) -- as the references the kernel's city-wide distance pass,
batched selection and one-per-round repair must match index for index
and byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.arrays import CategoryArrays
from repro.core.assembly import (
    InfeasibleQueryError,
    _check_feasible_categories,
    _gamma_sims,
    _record_scans,
    _select_rows,
)
from repro.core.composite import CompositeItem
from repro.core.query import GroupQuery
from repro.data.dataset import POIDataset
from repro.data.poi import POI, Category
from repro.geo.distance import equirectangular_km
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex
from repro.reduction import ordered_sum


class _Pool(NamedTuple):
    """One category's candidate pool for one centroid, pool-aligned:
    the POI ids, costs and scores of its rows, plus the slots to fill."""

    ids: np.ndarray
    costs: np.ndarray
    scores: np.ndarray
    count: int


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
        floor = 0.0
        for cat, pool in per_category.items():
            for c in sorted(pool, key=lambda c: (c.cost, c.poi.id))[
                    : query.count(cat)]:
                floor += c.cost
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
                             arrays=None, gsims=None) -> list[CompositeItem]:
    """One object-path CI per centroid (drop-in for the batched kernel;
    ``arrays`` and ``gsims`` are ignored)."""
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

    def total_cost() -> float:
        total = 0.0
        for pool in selected.values():
            for c in pool:
                total += c.cost
        return total

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


# -- the array kernel's former per-category and per-slot pieces ---------------

def _totals_matrix(ca: CategoryArrays, cents: np.ndarray, gsims: np.ndarray,
                   beta: float, max_distance_km: float) -> np.ndarray:
    """``(k, n)`` score matrix for every centroid at once: one broadcast
    distance pass amortized across the package.  Every element runs the
    exact elementwise ops of the per-centroid pass, so each row is
    bit-identical to scoring that centroid alone."""
    dist = equirectangular_km(ca.lats[None, :], ca.lons[None, :],
                              cents[:, 0][:, None], cents[:, 1][:, None])
    if max_distance_km > 0:
        dist = dist / max_distance_km
    closeness = 1.0 - np.clip(dist, 0.0, 1.0)
    return beta * closeness + gsims[None, :]


def _pools_batched(ca: CategoryArrays, cents: np.ndarray,
                   profile_vec: np.ndarray, beta: float, gamma: float,
                   max_distance_km: float, candidate_pool: int,
                   needed: int, has_budget: bool) -> list[_Pool]:
    """Candidate pools for one category across *all* centroids: one
    profile mat-vec and one broadcast ``(k, n)`` distance matrix.

    Without a budget a pool is just the ``needed`` greedy winners.
    Under a budget it is the ``pool`` top scorers followed by the
    ``pool`` cheapest rows (in the precomputed ``(cost, id)`` order)
    not already among them, so cheap candidates stay reachable for the
    repair phase; ``pool`` is ``candidate_pool`` raised to ``needed``,
    so every pool can fill its slots.
    """
    pool = max(candidate_pool, needed)
    gsims = _gamma_sims(ca, profile_vec, gamma)
    totals = _totals_matrix(ca, cents, gsims, beta, max_distance_km)
    _record_scans(totals.size)
    cheap = ca.cost_order[:pool]
    pools = []
    for total in totals:
        rows = _top_rows(total, ca.ids, pool)
        if has_budget:
            seen = np.zeros(len(ca), dtype=bool)
            seen[rows] = True
            rows = np.concatenate([rows, cheap[~seen[cheap]]])
        else:
            rows = rows[:needed]
        pools.append(_Pool(ca.ids[rows], ca.costs[rows], total[rows], needed))
    return pools


def _top_rows(total: np.ndarray, ids: np.ndarray, pool: int) -> np.ndarray:
    """The ``pool`` best rows in exact ``(-score, id)`` order.

    A partition cuts the field down to the rows that can reach the top
    ``pool`` (everything scoring at least the ``pool``-th best value,
    so score ties at the boundary stay in contention), then a lexsort
    applies the id tie-break -- the same total order the object path
    gets from sorting ``(-score, poi.id)`` tuples.
    """
    n = total.shape[0]
    if pool <= 0 or n == 0:
        return np.empty(0, dtype=np.int64)
    if n > pool:
        threshold = np.partition(total, n - pool)[n - pool]
        keep = np.flatnonzero(total >= threshold)
    else:
        keep = np.arange(n)
    order = keep[np.lexsort((ids[keep], -total[keep]))]
    return order[:pool]


def _repair_budget_per_slot(pools: tuple[_Pool, ...],
                            budget: float) -> list[list[int]]:
    """Greedy fill, then swap picks for cheaper same-category pool
    members until the CI fits ``budget``; returns each pool's chosen
    positions in slot order.

    Each pass applies the swap saving the most cost per unit of score
    lost (:func:`_best_swap`).  Terminates: every swap strictly reduces
    the affected slot's cost through its pool's at most ``len(pool)``
    distinct values, so ``sum(count * len(pool))`` passes suffice; the
    explicit bound is a guard against pathological inputs, after which
    (as when no cheaper alternative exists anywhere) the cheapest
    conforming selection is installed outright.

    Raises:
        InfeasibleQueryError: If even the cheapest conforming selection
            exceeds ``budget``.
    """
    cost_lists = [p.costs.tolist() for p in pools]

    def total_cost(picks: list[list[int]]) -> float:
        return ordered_sum(costs[i] for costs, chosen in zip(cost_lists, picks)
                           for i in chosen)

    # The cheapest conforming selection, in (cost, id) order, bounds
    # feasibility.  Its floor is summed as repair sums any selection,
    # so when the floor fits, installing the selection fits too.
    cheapest = [np.lexsort((p.ids, p.costs))[:p.count].tolist()
                for p in pools]
    floor = total_cost(cheapest)
    if floor > budget:
        raise InfeasibleQueryError(
            f"even the cheapest valid CI costs {floor:.2f}, over the "
            f"budget {budget:.2f}"
        )

    # Greedy fill: each pool leads with its best-scoring rows.
    picks = [list(range(p.count)) for p in pools]
    max_passes = sum(p.count * len(p.costs) for p in pools)
    passes = 0
    while total_cost(picks) > budget:
        best = _best_swap(pools, picks) if passes < max_passes else None
        if best is None:
            return cheapest
        passes += 1
        j, slot, alt = best
        picks[j][slot] = alt
    return picks


def _best_swap(pools: tuple[_Pool, ...],
               picks: list[list[int]]) -> tuple[int, int, int] | None:
    """The ``(pool, slot, position)`` swap with the best ratio of cost
    saved to score lost, or ``None`` when no pick has a cheaper unpicked
    alternative.

    One masked ratio vector per slot; a slot's first ``argmax`` replaces
    the best so far only when strictly greater, so ties resolve in
    ``(category, slot, pool position)`` order.
    """
    best = None
    best_ratio = -np.inf
    for j, (p, chosen) in enumerate(zip(pools, picks)):
        c, sc = p.costs, p.scores
        free = np.ones(len(c), dtype=bool)
        free[chosen] = False
        for slot, cur in enumerate(chosen):
            ratio = np.where((c < c[cur]) & free,
                             (c[cur] - c) / (np.maximum(sc[cur] - sc, 0.0)
                                             + 1e-9),
                             -np.inf)
            alt = int(np.argmax(ratio))
            if ratio[alt] > best_ratio:
                best_ratio, best = ratio[alt], (j, slot, alt)
    return best


def _budget_pools_per_centroid(ca: CategoryArrays, totals: np.ndarray,
                               pool: int, needed: int) -> list[_Pool]:
    """One category's candidate pool per centroid under a budget: the
    ``pool`` top scorers, followed by the ``pool`` cheapest rows (in
    the precomputed ``(cost, id)`` order) not already among them, so
    cheap candidates stay reachable for the repair phase."""
    top = _select_rows(totals, ca.ids, pool)
    cheap = ca.cost_order[:pool]
    seen = np.zeros(totals.shape, dtype=bool)
    seen[np.arange(len(top))[:, None], top] = True
    unseen = ~seen[:, cheap]
    pools = []
    for total, best, extra in zip(totals, top, unseen):
        rows = np.concatenate([best, cheap[extra]])
        pools.append(_Pool(ca.ids[rows], ca.costs[rows], total[rows], needed))
    return pools


def _repair_budget_padded(pools: tuple[_Pool, ...],
                          budget: float) -> list[list[int]]:
    """Greedy fill, then swap picks for cheaper same-category pool
    members until the CI fits ``budget``; returns each pool's chosen
    positions in slot order.

    Each pass applies the swap saving the most cost per unit of score
    lost (:func:`_best_swap_padded`) over one ``(slots, max pool)``
    matrix: a slot's row holds its category's pool, padded with ``inf``
    costs that the free mask excludes.  Terminates: every swap strictly
    reduces the affected slot's cost through its pool's at most
    ``len(pool)`` distinct values, so ``sum(count * len(pool))`` passes
    suffice; the explicit bound is a guard against pathological inputs,
    after which (as when no cheaper alternative exists anywhere) the
    cheapest conforming selection is installed outright.

    Raises:
        InfeasibleQueryError: If even the cheapest conforming selection
            exceeds ``budget``.
    """
    # The cheapest conforming selection, in (cost, id) order, bounds
    # feasibility.  Its floor is summed as repair sums any selection,
    # so when the floor fits, installing the selection fits too.
    cheapest = [np.lexsort((p.ids, p.costs))[:p.count].tolist()
                for p in pools]
    floor = ordered_sum(c for p, chosen in zip(pools, cheapest)
                        for c in p.costs[chosen].tolist())
    if floor > budget:
        raise InfeasibleQueryError(
            f"even the cheapest valid CI costs {floor:.2f}, over the "
            f"budget {budget:.2f}"
        )

    counts = [p.count for p in pools]
    slot_pool = np.repeat(np.arange(len(pools)), counts)
    width = max(len(p.costs) for p in pools)
    cost = np.full((len(pools), width), np.inf)
    score = np.zeros((len(pools), width))
    free = np.zeros((len(pools), width), dtype=bool)
    for j, p in enumerate(pools):
        cost[j, :len(p.costs)] = p.costs
        score[j, :len(p.costs)] = p.scores
        free[j, :len(p.costs)] = True
    # Greedy fill: each pool leads with its best-scoring rows.
    picks = np.concatenate([np.arange(c) for c in counts])
    free[slot_pool, picks] = False
    cost, score = cost[slot_pool], score[slot_pool]
    slots = np.arange(len(picks))

    max_passes = sum(p.count * len(p.costs) for p in pools)
    passes = 0
    while ordered_sum(cost[slots, picks].tolist()) > budget:
        best = (_best_swap_padded(cost, score, free[slot_pool], picks)
                if passes < max_passes else None)
        if best is None:
            return cheapest
        passes += 1
        slot, alt = best
        free[slot_pool[slot], picks[slot]] = True
        free[slot_pool[slot], alt] = False
        picks[slot] = alt
    return [chosen.tolist()
            for chosen in np.split(picks, np.cumsum(counts)[:-1])]


def _best_swap_padded(cost: np.ndarray, score: np.ndarray,
                      free: np.ndarray,
                      picks: np.ndarray) -> tuple[int, int] | None:
    """The ``(slot, position)`` swap with the best ratio of cost saved
    to score lost, or ``None`` when no pick has a cheaper free
    alternative.

    ``cost``, ``score`` and ``free`` are ``(slots, width)``: row ``s``
    is the pool of slot ``s``'s category; ``picks[s]`` is the slot's
    current position.  The flat first ``argmax`` resolves ties in
    ``(category, slot, pool position)`` order -- a later candidate wins
    only when strictly greater.
    """
    slots = np.arange(len(picks))
    cur_cost = cost[slots, picks][:, None]
    cur_score = score[slots, picks][:, None]
    ratio = np.where((cost < cur_cost) & free,
                     (cur_cost - cost) / (np.maximum(cur_score - score, 0.0)
                                          + 1e-9),
                     -np.inf)
    best = int(np.argmax(ratio))
    if ratio.flat[best] == -np.inf:
        return None
    return divmod(best, ratio.shape[1])

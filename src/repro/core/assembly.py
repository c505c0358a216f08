"""Valid Composite-Item assembly around a centroid.

Given a centroid, a query and a group profile, pick the POIs that
maximize the per-CI part of Equation 1,

    beta * sum (1 - dist(i, mu)) + gamma * sum cos(item_i, g),

subject to validity: exact category counts and total cost within budget.
The same routine powers both the KFC optimizer (one CI per fuzzy
centroid) and the ``GENERATE(RECTANGLE)`` customization operator (one CI
at a user-chosen location).

Strategy: score all candidates per category, greedily fill each
category's slots with the best-scoring items, then -- if the budget is
violated -- repair with swaps that save the most cost per unit of score
given up.  Greedy-with-repair is exact when the budget is slack (the
experiments run with an infinite budget) and a strong heuristic when it
binds; a final cheapest-fill fallback guarantees we find *a* valid CI
whenever one exists.

Scoring runs against the city's :class:`~repro.core.arrays.CityArrays`
bundle (the pooled ``CityArrays.of(dataset, item_index)`` when none is
passed), batched across the whole package: per category, the profile
mat-vec is computed *once* and shared by every centroid, the distance
pass is one broadcast ``(k_centroids, n)`` matrix, the candidate pool is
cut with a partition + lexsort (preserving the exact ``(-score, id)``
order), and POI objects are materialized only for the members of the
final :class:`~repro.core.composite.CompositeItem`.

The per-``POI`` object-path scorer lives in ``tests/assembly_oracle.py``
as the reference the property tests compare this kernel against bit for
bit; the golden package fixtures pin the bytes of both.
:func:`collect_assembly_counters` exposes how many candidate rows the
scans scored so serving stacks can report assembly work.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.arrays import CategoryArrays, CityArrays
from repro.core.composite import CompositeItem
from repro.core.query import GroupQuery
from repro.data.dataset import POIDataset
from repro.data.poi import POI, Category
from repro.geo.distance import equirectangular_km
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex


class InfeasibleQueryError(ValueError):
    """Raised when no valid CI exists: a category lacks POIs, or even the
    cheapest conforming selection exceeds the budget."""


# -- scan observability --------------------------------------------------------

@dataclass
class AssemblyCounters:
    """Work counters for the scans inside one collection scope.

    One *scan* is one ``(category, centroid)`` scoring pass over every
    row of the category, so ``rows_scored`` always equals
    ``rows_total``; both are kept because dashboards and the benchmark
    ledger read them as a pair.
    """

    rows_scored: int = 0
    rows_total: int = 0


_COUNTERS: ContextVar[AssemblyCounters | None] = ContextVar(
    "assembly_counters", default=None
)


@contextmanager
def collect_assembly_counters() -> Iterator[AssemblyCounters]:
    """Collect assembly scan counters for the duration of the block.

    Contextvar-scoped, so concurrent builds on other threads (or tasks)
    never bleed into each other's counters and no assembly API grows an
    extra parameter::

        with collect_assembly_counters() as counters:
            builder.build(profile, query)
        metrics.counter_inc("assembly.rows_scored", counters.rows_scored)
    """
    counters = AssemblyCounters()
    token = _COUNTERS.set(counters)
    try:
        yield counters
    finally:
        _COUNTERS.reset(token)


def _record_scans(rows: int) -> None:
    counters = _COUNTERS.get()
    if counters is None:
        return
    counters.rows_scored += rows
    counters.rows_total += rows


@dataclass(frozen=True)
class _Candidate:
    """A scored candidate POI for one CI."""

    poi: POI
    score: float

    @property
    def cost(self) -> float:
        return self.poi.cost


# -- scoring -------------------------------------------------------------------

def _gamma_sims(ca: CategoryArrays, profile_vec: np.ndarray,
                gamma: float) -> np.ndarray:
    """``gamma * cos(item, g)`` per category row -- the
    centroid-independent half of the score, computed once per
    ``(category, profile)`` and shared by every centroid.  Operation
    for operation the same arithmetic as the object-path oracle
    (``gamma * sims`` is rounded per element there too), so totals
    built from it are bit-identical."""
    norm_g = float(np.linalg.norm(profile_vec))
    if norm_g == 0.0:
        sims = np.zeros(len(ca))
    else:
        norms = ca.vector_norms
        safe = np.where(norms == 0.0, 1.0, norms)
        sims = (ca.vectors @ profile_vec) / (safe * norm_g)
        sims[norms == 0.0] = 0.0
    return gamma * sims


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


def _pool_from_scores(dataset: POIDataset, ca: CategoryArrays,
                      total: np.ndarray, candidate_pool: int, needed: int,
                      has_budget: bool) -> list[_Candidate]:
    """One category's candidate pool from its scored rows.

    Without a budget only the ``needed`` greedy winners are ever used,
    so only those POI objects are materialized; under a budget the full
    pool (top scorers plus the precomputed cheapest rows) is built for
    the repair phase.
    """
    top = _top_rows(total, ca.ids, candidate_pool)
    if not has_budget:
        top = top[:needed]
    pool = [_Candidate(poi=dataset[int(ca.ids[int(r)])], score=float(total[r]))
            for r in top]
    if has_budget:
        # Keep cheap candidates reachable for the repair phase, in the
        # precomputed (cost, id) order.
        seen = {int(ca.ids[int(r)]) for r in top}
        for r in ca.cost_order[:candidate_pool]:
            poi_id = int(ca.ids[int(r)])
            if poi_id not in seen:
                pool.append(_Candidate(poi=dataset[poi_id],
                                       score=float(total[r])))
    return pool


def _pools_batched(dataset: POIDataset, ca: CategoryArrays, cents: np.ndarray,
                   profile_vec: np.ndarray, beta: float, gamma: float,
                   max_distance_km: float, candidate_pool: int, needed: int,
                   has_budget: bool) -> list[list[_Candidate]]:
    """Candidate pools for one category across *all* centroids: one
    profile mat-vec and one broadcast ``(k, n)`` distance matrix."""
    gsims = _gamma_sims(ca, profile_vec, gamma)
    totals = _totals_matrix(ca, cents, gsims, beta, max_distance_km)
    _record_scans(totals.size)
    return [_pool_from_scores(dataset, ca, row, candidate_pool, needed,
                              has_budget)
            for row in totals]


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


def _check_feasible_categories(dataset: POIDataset, query: GroupQuery,
                               requested: tuple[Category, ...]) -> None:
    """Validate every requested category up front: an empty or
    undersized category must raise before *any* scoring work (no
    arrays resolution, no profile-vector reads, no distance passes for
    earlier categories)."""
    for cat in requested:
        needed = query.count(cat)
        have = len(dataset.by_category(cat))
        if have < needed:
            raise InfeasibleQueryError(
                f"query needs {needed} {cat.value} POIs but the dataset "
                f"has only {have}"
            )


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


def assemble_composite_items(dataset: POIDataset, centroids,
                             query: GroupQuery, profile: GroupProfile,
                             item_index: ItemVectorIndex,
                             beta: float = 1.0, gamma: float = 1.0,
                             candidate_pool: int = 60,
                             arrays: CityArrays | None = None
                             ) -> list[CompositeItem]:
    """Build one valid CI around each of ``centroids`` -- the batched
    kernel behind a whole-package assembly pass.

    Each category's profile mat-vec runs once for the whole batch and
    the distance work is one broadcast ``(k, n)`` matrix instead of
    ``k`` independent passes.  Results are bit-identical to calling
    :func:`assemble_composite_item` once per centroid (pinned by golden
    fixtures and property tests).

    Args:
        centroids: ``(k, 2)`` array (or sequence) of ``(lat, lon)``.
        arrays: The city bundle to score against; defaults to the
            pooled ``CityArrays.of(dataset, item_index)``.

    Raises:
        InfeasibleQueryError: If no valid CI exists for this query.
    """
    cents = np.asarray(centroids, dtype=float)
    if cents.ndim != 2 or (cents.size and cents.shape[1] != 2):
        raise ValueError("centroids must be a (k, 2) array of (lat, lon)")
    requested = query.requested_categories()
    _check_feasible_categories(dataset, query, requested)
    k = cents.shape[0]
    if k == 0:
        return []
    if arrays is None:
        arrays = CityArrays.of(dataset, item_index)

    pools_per_centroid: list[dict[Category, list[_Candidate]]] = [
        {} for _ in range(k)
    ]
    for cat in requested:
        pools = _pools_batched(
            dataset, arrays.categories[cat], cents, profile.vector(cat),
            beta, gamma, arrays.max_distance_km, candidate_pool,
            query.count(cat), query.has_budget,
        )
        for per_cat, pool in zip(pools_per_centroid, pools):
            per_cat[cat] = pool

    return [
        _finish_assembly(per_cat, query,
                         (float(cents[i, 0]), float(cents[i, 1])))
        for i, per_cat in enumerate(pools_per_centroid)
    ]


def assemble_composite_item(dataset: POIDataset, centroid: tuple[float, float],
                            query: GroupQuery, profile: GroupProfile,
                            item_index: ItemVectorIndex,
                            beta: float = 1.0, gamma: float = 1.0,
                            candidate_pool: int = 60,
                            arrays: CityArrays | None = None) -> CompositeItem:
    """Build the best valid CI around ``centroid``.

    Args:
        dataset: The city's POIs.
        centroid: ``(lat, lon)`` to anchor the CI.
        query: Validity specification.
        profile: Group profile for the personalization term.
        item_index: Item vectors matching the profile's schema.
        beta, gamma: Equation 1's CI-term weights.
        candidate_pool: Per category, only the top-scoring (and, under a
            finite budget, the cheapest) candidates of this many are
            considered -- a large pool at city scale, bounded for speed.
        arrays: The city bundle to score against; defaults to the
            pooled ``CityArrays.of(dataset, item_index)``.

    Raises:
        InfeasibleQueryError: If no valid CI exists for this query.
    """
    return assemble_composite_items(
        dataset, np.asarray([centroid], dtype=float), query, profile,
        item_index, beta=beta, gamma=gamma, candidate_pool=candidate_pool,
        arrays=arrays,
    )[0]


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
        """Install the cheapest conforming selection (known feasible)."""
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

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
pass is one broadcast ``(k_centroids, n)`` matrix, and the candidate
pool is cut with a partition + lexsort (preserving the exact
``(-score, id)`` order).  Pools stay arrays (the ids, costs and scores
of their rows), so the budget repair scans one masked ratio vector per
slot, and on both paths ``POI`` objects are materialized only for the
final picks.

The per-``POI`` object-path scorer and its Python-loop repair live in
``tests/assembly_oracle.py`` as the reference the property tests compare
this kernel against bit for bit; the golden package fixtures pin the
bytes of both.
:func:`collect_assembly_counters` exposes how many candidate rows the
scans scored so serving stacks can report assembly work.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro.core.arrays import CategoryArrays, CityArrays
from repro.core.composite import CompositeItem
from repro.core.query import GroupQuery
from repro.data.dataset import POIDataset
from repro.data.poi import Category
from repro.geo.distance import equirectangular_km
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex
from repro.reduction import ordered_sum


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


class _Pool(NamedTuple):
    """One category's candidate pool for one centroid, pool-aligned:
    the POI ids, costs and scores of its rows, plus the slots to fill."""

    ids: np.ndarray
    costs: np.ndarray
    scores: np.ndarray
    count: int


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


def _finish_assembly(dataset: POIDataset, pools: tuple[_Pool, ...],
                     query: GroupQuery,
                     centroid: tuple[float, float]) -> CompositeItem:
    """Greedy fill (+ budget repair) over already-scored pools; ``POI``
    objects are built only for the final picks."""
    if query.has_budget:
        picks = _repair_budget(pools, query.budget)
    else:
        picks = [range(p.count) for p in pools]
    pois = [dataset[int(p.ids[i])] for p, chosen in zip(pools, picks)
            for i in chosen]
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

    per_category = [
        _pools_batched(arrays.categories[cat], cents, profile.vector(cat),
                       beta, gamma, arrays.max_distance_km, candidate_pool,
                       query.count(cat), query.has_budget)
        for cat in requested
    ]
    return [_finish_assembly(dataset, pools, query, (lat, lon))
            for (lat, lon), pools in zip(cents.tolist(), zip(*per_category))]


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
            finite budget, the cheapest) candidates of this many (or of
            the category's count, when larger) are considered -- a
            large pool at city scale, bounded for speed.
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


def _repair_budget(pools: tuple[_Pool, ...], budget: float) -> list[list[int]]:
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

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
passed), and one call assembles a whole package round as a few
whole-array operations:

* ``gamma * cos(item, g)`` depends only on the profile, so a KFC build
  computes it once per category (:func:`gamma_sims`) and every round
  reuses it;
* the round makes one distance pass, a ``(k, N)`` closeness matrix over
  the city-wide columns; a category's scores are its column slice plus
  its ``gamma * cos``;
* each category's candidates for all ``k`` centroids come from one
  row-wise partition and one row-keyed lexsort, in the exact
  ``(-score, id)`` order;
* under a budget, each repair pass scores every swap of the CI in one
  padded ``(slots, max pool)`` ratio matrix and takes its first
  ``argmax`` -- the ``(category, slot, position)`` tie rule.

``POI`` objects are materialized only for the final picks.

The per-``POI`` object-path scorer and its Python-loop repair live in
``tests/assembly_oracle.py`` as the reference the property tests compare
this kernel against bit for bit, next to the kernel's former
per-category distance pass, per-centroid selection and per-slot repair;
the golden package fixtures pin the bytes of all of them.
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


def gamma_sims(arrays: CityArrays, profile: GroupProfile,
               categories: tuple[Category, ...],
               gamma: float) -> dict[Category, np.ndarray]:
    """:func:`_gamma_sims` for each of ``categories`` -- computed once
    per build, since the profile is fixed across every assembly
    round."""
    return {cat: _gamma_sims(arrays.categories[cat], profile.vector(cat),
                             gamma)
            for cat in categories}


def _near_matrix(arrays: CityArrays, cents: np.ndarray,
                 beta: float) -> np.ndarray:
    """``beta * (1 - dist_norm)`` as one ``(k, N)`` matrix over the
    city-wide columns: the round's only distance pass.  Each element
    runs the elementwise ops of a per-category pass, so a category's
    column slice plus its ``gamma * cos`` is bit-identical to scoring
    that category alone."""
    dist = equirectangular_km(arrays.lats[None, :], arrays.lons[None, :],
                              cents[:, 0][:, None], cents[:, 1][:, None])
    if arrays.max_distance_km > 0:
        dist = dist / arrays.max_distance_km
    return beta * (1.0 - np.clip(dist, 0.0, 1.0))


class _Pool(NamedTuple):
    """One category's candidate pool for one centroid, pool-aligned:
    the POI ids, costs and scores of its rows, plus the slots to fill."""

    ids: np.ndarray
    costs: np.ndarray
    scores: np.ndarray
    count: int


def _select_rows(totals: np.ndarray, ids: np.ndarray,
                 cut: int) -> np.ndarray:
    """Each row's best ``min(cut, n)`` columns in exact ``(-score, id)``
    order, as a ``(k, min(cut, n))`` matrix.

    One partition per row finds the ``cut``-th best value, so every
    column scoring at least that much (boundary ties included) stays in
    contention; one lexsort keyed by row orders all candidates at once,
    and each row keeps its first ``cut``.
    """
    k, n = totals.shape
    if n > cut:
        threshold = np.partition(totals, n - cut, axis=1)[:, n - cut]
        r, c = np.nonzero(totals >= threshold[:, None])
    else:
        r, c = np.divmod(np.arange(k * n), n)
    order = np.lexsort((ids[c], -totals[r, c], r))
    r, c = r[order], c[order]
    rank = np.arange(r.size) - np.searchsorted(r, r)
    return c[rank < cut].reshape(k, -1)


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


def _budget_pools(ca: CategoryArrays, totals: np.ndarray, pool: int,
                  needed: int) -> list[_Pool]:
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


def assemble_composite_items(dataset: POIDataset, centroids,
                             query: GroupQuery, profile: GroupProfile,
                             item_index: ItemVectorIndex,
                             beta: float = 1.0, gamma: float = 1.0,
                             candidate_pool: int = 60,
                             arrays: CityArrays | None = None,
                             gsims: dict[Category, np.ndarray] | None = None
                             ) -> list[CompositeItem]:
    """Build one valid CI around each of ``centroids`` -- one assembly
    round of a whole package.

    The round is one ``(k, N)`` distance pass over the city, one
    partition + lexsort selection per category for all ``k`` centroids
    and, under a budget, one padded ratio matrix per repair pass.
    Results are bit-identical to the object-path oracle run once per
    centroid (pinned by golden fixtures and property tests).

    Args:
        centroids: ``(k, 2)`` array (or sequence) of ``(lat, lon)``.
        beta, gamma: Equation 1's CI-term weights.
        candidate_pool: Under a finite budget, each category's pool is
            its top-scoring and its cheapest candidates, this many (or
            the category's count, when larger) of each.
        arrays: The city bundle to score against; defaults to the
            pooled ``CityArrays.of(dataset, item_index)``.
        gsims: :func:`gamma_sims` of ``profile`` for the requested
            categories at this ``gamma``, when the caller already has
            them (a KFC build computes them once for all its rounds).

    Raises:
        InfeasibleQueryError: If no valid CI exists for this query.
    """
    cents = np.asarray(centroids, dtype=float)
    if cents.ndim != 2 or (cents.size and cents.shape[1] != 2):
        raise ValueError("centroids must be a (k, 2) array of (lat, lon)")
    requested = query.requested_categories()
    _check_feasible_categories(dataset, query, requested)
    if cents.shape[0] == 0:
        return []
    if arrays is None:
        arrays = CityArrays.of(dataset, item_index)
    if gsims is None:
        gsims = gamma_sims(arrays, profile, requested, gamma)

    near = _near_matrix(arrays, cents, beta)
    picked = []  # per category: (k, count) ids, or k budget pools
    for cat in requested:
        ca = arrays.categories[cat]
        needed = query.count(cat)
        totals = near[:, ca.rows] + gsims[cat]
        _record_scans(totals.size)
        if query.has_budget:
            picked.append(_budget_pools(ca, totals,
                                        max(candidate_pool, needed), needed))
        else:
            picked.append(ca.ids[_select_rows(totals, ca.ids, needed)])

    cis = []
    for (lat, lon), per_category in zip(cents.tolist(), zip(*picked)):
        if query.has_budget:
            ids = [int(p.ids[i]) for p, chosen in
                   zip(per_category, _repair_budget(per_category,
                                                    query.budget))
                   for i in chosen]
        else:
            ids = np.concatenate(per_category).tolist()
        cis.append(CompositeItem([dataset[i] for i in ids],
                                 centroid=(lat, lon)))
    return cis


def _repair_budget(pools: tuple[_Pool, ...], budget: float) -> list[list[int]]:
    """Greedy fill, then swap picks for cheaper same-category pool
    members until the CI fits ``budget``; returns each pool's chosen
    positions in slot order.

    Each pass applies the swap saving the most cost per unit of score
    lost (:func:`_best_swap`) over one ``(slots, max pool)`` matrix: a
    slot's row holds its category's pool, padded with ``inf`` costs
    that the free mask excludes.  Terminates: every swap strictly
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
        best = (_best_swap(cost, score, free[slot_pool], picks)
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


def _best_swap(cost: np.ndarray, score: np.ndarray, free: np.ndarray,
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

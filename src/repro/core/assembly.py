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
* under a budget, one repair serves all ``k`` centroids: each pass
  scores every swap of every centroid still over budget in one
  ``(k, slots, width)`` ratio tensor and takes each centroid's first
  ``argmax`` -- the ``(category, slot, position)`` tie rule.

The kernel returns the round as a ``(k, slots)`` matrix of city-wide
bundle rows, slots in the query's category order, so KFC rounds pass
rows to each other and no round builds objects; :func:`composite_items`
looks up the ``POI`` objects and builds the CIs once, for the picks of
the last round.

The per-``POI`` object-path scorer and its Python-loop repair live in
``tests/assembly_oracle.py`` as the reference the property tests compare
this kernel against bit for bit, next to the kernel's former
per-category distance pass, per-centroid selection, per-slot repair and
per-centroid pools and repair; the golden package fixtures pin the
bytes of all of them.
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


#: Elements of one repair tensor (centroids x slots x width); a larger
#: round repairs in centroid chunks.  A default query is one chunk.
_REPAIR_ELEMENTS = 1 << 16


class _Pools(NamedTuple):
    """``(k, categories, width)`` blocks: row ``[c, j]`` is centroid
    ``c``'s pool of category ``j`` as city-wide rows, ``inf`` costs
    where no candidate."""

    rows: np.ndarray
    costs: np.ndarray
    scores: np.ndarray


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
        needed = query.counts[cat]
        have = len(dataset.by_category(cat))
        if have < needed:
            raise InfeasibleQueryError(
                f"query needs {needed} {cat.value} POIs but the dataset "
                f"has only {have}"
            )


def _cheapest_fill(cas: list[CategoryArrays], counts: tuple[int, ...],
                   budget: float) -> np.ndarray:
    """The city-wide rows of the cheapest conforming selection (each
    category's first ``count`` rows in ``(cost, id)`` order), every
    centroid's fallback.  Its floor is summed as repair sums a selection, so a
    floor within ``budget`` means the fallback fits; else this raises
    :class:`InfeasibleQueryError`."""
    rows = [ca.cost_order[:count] for ca, count in zip(cas, counts)]
    floor = ordered_sum(c for ca, r in zip(cas, rows)
                        for c in ca.costs[r].tolist())
    if floor > budget:
        raise InfeasibleQueryError(
            f"even the cheapest valid CI costs {floor:.2f}, over the "
            f"budget {budget:.2f}"
        )
    return np.concatenate([ca.rows[r] for ca, r in zip(cas, rows)])


def _budget_pools(cas: list[CategoryArrays], totals: list[np.ndarray],
                  cuts: np.ndarray) -> _Pools:
    """Every centroid's candidate pool of every category under a
    budget: the ``cut`` top scorers, then the ``cut`` cheapest rows (in
    the precomputed ``(cost, id)`` order), so cheap candidates stay
    reachable for the repair phase -- all rows as top scorers when the
    cut spans the category.  A cheap row already among the top scorers
    keeps its position at an ``inf`` cost."""
    k = len(totals[0])
    cheaps = [cut if cut < len(ca) else 0 for ca, cut in zip(cas, cuts)]
    shape = (k, len(cas), max(min(cut, len(ca)) + c
                              for ca, cut, c in zip(cas, cuts, cheaps)))
    city_rows = np.zeros(shape, dtype=np.int64)
    costs = np.full(shape, np.inf)
    scores = np.zeros(shape)
    rows = np.arange(k)[:, None]
    for j, (ca, total, cut, c) in enumerate(zip(cas, totals, cuts, cheaps)):
        top = _select_rows(total, ca.ids, cut)
        cheap = ca.cost_order[:c]
        pool = np.hstack([top, np.broadcast_to(cheap, (k, c))])
        t, w = top.shape[1], pool.shape[1]
        city_rows[:, j, :w] = ca.rows[pool]
        costs[:, j, :w] = ca.costs[pool]
        scores[:, j, :w] = total[rows, pool]
        seen = np.zeros(total.shape, dtype=bool)
        seen[rows, top] = True
        costs[:, j, t:w][seen[:, cheap]] = np.inf
    return _Pools(city_rows, costs, scores)


def assemble_composite_items(dataset: POIDataset, centroids,
                             query: GroupQuery, profile: GroupProfile,
                             item_index: ItemVectorIndex,
                             beta: float = 1.0, gamma: float = 1.0,
                             candidate_pool: int = 60,
                             arrays: CityArrays | None = None,
                             gsims: dict[Category, np.ndarray] | None = None
                             ) -> np.ndarray:
    """Pick one valid CI around each of ``centroids`` -- one assembly
    round of a whole package -- as a ``(k, slots)`` matrix of city-wide
    bundle rows.  Slots follow ``query.requested_categories()``, each
    category's ``count`` slots in pick order; :func:`composite_items`
    turns the matrix into ``CompositeItem`` objects.

    The round is one ``(k, N)`` distance pass over the city, one
    partition + lexsort selection per category for all ``k`` centroids
    and, under a budget, one repair for all ``k`` centroids.
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
            A caller that passes them has checked the query's
            feasibility against ``dataset`` first, as a KFC build does
            once per build; without them the kernel checks it.

    Raises:
        InfeasibleQueryError: If no valid CI exists for this query.
    """
    cents = np.asarray(centroids, dtype=float)
    if cents.ndim != 2 or (cents.size and cents.shape[1] != 2):
        raise ValueError("centroids must be a (k, 2) array of (lat, lon)")
    requested = query.requested_categories()
    if gsims is None:
        _check_feasible_categories(dataset, query, requested)
    counts = query.requested_counts()
    if cents.shape[0] == 0:
        return np.empty((0, sum(counts)), dtype=np.int64)
    if arrays is None:
        arrays = CityArrays.of(dataset, item_index)
    if gsims is None:
        gsims = gamma_sims(arrays, profile, requested, gamma)

    cas = [arrays.categories[cat] for cat in requested]
    if query.has_budget:
        cheapest = _cheapest_fill(cas, counts, query.budget)

    near = _near_matrix(arrays, cents, beta)
    totals = []
    for cat, ca in zip(requested, cas):
        totals.append(near[:, ca.rows] + gsims[cat])
        _record_scans(totals[-1].size)
    if query.has_budget:
        pools = _budget_pools(cas, totals,
                              np.maximum(candidate_pool, counts))
        return _repair_budget(pools, counts, cheapest, query.budget)
    return np.concatenate(
        [ca.rows[_select_rows(total, ca.ids, needed)]
         for ca, total, needed in zip(cas, totals, counts)], axis=1)


def composite_items(dataset: POIDataset, arrays: CityArrays, centroids,
                    rows: np.ndarray) -> list[CompositeItem]:
    """The ``CompositeItem`` objects of an assembly round: CI ``c`` holds
    the POIs at bundle rows ``rows[c]``, in slot order, around
    ``centroids[c]``."""
    cents = np.asarray(centroids, dtype=float).tolist()
    return [CompositeItem([dataset[i] for i in row], centroid=(lat, lon))
            for (lat, lon), row in zip(cents, arrays.ids[rows].tolist())]


def _repair_budget(pools: _Pools, counts: tuple[int, ...],
                   cheapest: np.ndarray, budget: float) -> np.ndarray:
    """Greedy fill, then swap picks for cheaper same-category pool
    members until each centroid's CI fits ``budget``; returns the
    ``(k, slots)`` chosen city-wide rows in slot order.  All centroids
    repair at once, in chunks of :data:`_REPAIR_ELEMENTS`.  Consumes
    ``pools``.
    """
    k, _, width = pools.costs.shape
    step = max(1, _REPAIR_ELEMENTS // (len(cheapest) * width))
    return np.concatenate([
        _repair_chunk(_Pools(*(a[lo:lo + step] for a in pools)), counts,
                      cheapest, budget)
        for lo in range(0, k, step)])


def _repair_chunk(pools: _Pools, counts: tuple[int, ...],
                  cheapest: np.ndarray, budget: float) -> np.ndarray:
    """:func:`_repair_budget` for one chunk of centroids, over one
    ``(centroids, slots, width)`` tensor: slot ``s`` holds its
    category's pool, ``avail`` the costs with taken positions at
    ``inf``.  Each pass retires the centroids that fit (a ``cumsum``
    adds left to right, like :func:`~repro.reduction.ordered_sum`) or
    have no cheaper alternative left (they install the cheapest fill);
    each other centroid applies the swap with the best ratio of cost
    saved to score lost, its first ``argmax`` over the flattened
    ``(slot, position)`` ratios.  A swap strictly lowers one slot's
    cost, so the loop ends.
    """
    rows, avail, score = pools
    slot_pool = np.repeat(np.arange(len(counts)), counts)
    slots = np.arange(len(slot_pool))
    # Greedy fill: each pool leads with its best-scoring rows.
    greedy = np.concatenate([np.arange(c) for c in counts])
    picks = np.tile(greedy, (len(rows), 1))
    cur_cost = avail[:, slot_pool, greedy]
    avail[:, slot_pool, greedy] = np.inf
    score = np.take(score, slot_pool, axis=1)
    out = np.empty_like(picks)
    live = np.arange(len(rows))
    stuck = np.zeros(len(rows), dtype=bool)
    while True:
        over = np.cumsum(cur_cost, axis=1)[:, -1] > budget
        stay = over & ~stuck
        if not stay.all():
            gone = ~stay
            out[live[gone]] = np.where(
                over[gone, None], cheapest,
                rows[live[gone, None], slot_pool, picks[gone]])
            if not stay.any():
                return out
            live, avail, score, picks, cur_cost = (
                a[stay] for a in (live, avail, score, picks, cur_cost))
        r = np.arange(len(live))
        cost = np.take(avail, slot_pool, axis=1)
        cur = cur_cost[..., None]
        lost = score[r[:, None], slots, picks][..., None] - score
        ratio = np.where(cost < cur, (cur - cost) / (np.maximum(lost, 0.0)
                                                     + 1e-9),
                         -np.inf).reshape(len(live), -1)
        best = ratio.argmax(axis=1)
        stuck = ratio[r, best] == -np.inf
        r, best = r[~stuck], best[~stuck]
        slot, alt = np.divmod(best, avail.shape[2])
        cat = slot_pool[slot]
        new_cost = avail[r, cat, alt]
        avail[r, cat, picks[r, slot]] = cur_cost[r, slot]
        avail[r, cat, alt] = np.inf
        picks[r, slot] = alt
        cur_cost[r, slot] = new_cost

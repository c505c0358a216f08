"""The assembly kernel's whole-array pieces vs their former per-category,
per-centroid and per-slot forms, kept verbatim in
``tests/assembly_oracle.py``.

Four properties, each compared by ``tobytes`` or index equality:

1. batched selection (one partition and one row-keyed lexsort for all
   centroids) returns, row for row, what ``_top_rows`` returns for one
   centroid -- on tie-heavy integer-valued totals with shuffled ids, at
   every cut from 1 to ``n + 1``;
2. each category's column slice of the city-wide ``near`` matrix, plus
   its ``gamma * cos``, is ``_totals_matrix`` byte for byte, and the
   padded budget pool blocks built from it hold ``_pools_batched``'s
   pools row by row;
3. the former per-centroid padded ``(slots, width)`` repair picks
   exactly what the per-slot repair picks, across 1-4 categories with
   unequal pool lengths and tie-heavy integer costs and scores,
   fallbacks and infeasible floors included;
4. one repair per round for all centroids picks, centroid by centroid,
   exactly what the per-centroid pools and repair pick, over 1-6
   centroids that converge at different passes, fall back or share an
   infeasible floor (same message), at every chunking of the centroid
   batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import assembly_oracle as oracle
import repro.core.assembly as assembly
from repro.core.assembly import (
    InfeasibleQueryError,
    _budget_pools,
    _cheapest_fill,
    _near_matrix,
    _repair_budget,
    _select_rows,
    gamma_sims,
)
from repro.data.poi import CATEGORIES
from repro.reduction import ordered_sum


@pytest.fixture(scope="module")
def profile(uniform_group):
    return uniform_group.profile()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_batched_selection_matches_top_rows(data):
    k = data.draw(st.integers(1, 4), label="k")
    n = data.draw(st.integers(1, 24), label="n")
    totals = np.array(
        data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n,
                                    max_size=n),
                           min_size=k, max_size=k), label="totals"),
        dtype=float)
    ids = np.array(data.draw(st.permutations(range(100, 100 + 2 * n)),
                             label="ids")[:n], dtype=np.int64)
    for cut in range(1, n + 2):
        got = _select_rows(totals, ids, cut)
        want = np.stack([oracle._top_rows(row, ids, cut) for row in totals])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@given(data=st.data())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_near_slice_matches_totals_matrix(data, app, profile, small_city):
    arrays = app.arrays
    coords = small_city.coordinates()
    lat_lo, lon_lo = coords.min(axis=0) - 0.01
    lat_hi, lon_hi = coords.max(axis=0) + 0.01
    k = data.draw(st.integers(1, 5), label="k")
    cents = np.array([
        [data.draw(st.floats(lat_lo, lat_hi), label=f"lat{i}"),
         data.draw(st.floats(lon_lo, lon_hi), label=f"lon{i}")]
        for i in range(k)
    ])
    beta = data.draw(st.floats(0.0, 8.0), label="beta")
    gamma = data.draw(st.floats(0.0, 8.0), label="gamma")
    pool = data.draw(st.integers(1, 80), label="pool")
    needed = data.draw(st.integers(1, 3), label="needed")

    near = _near_matrix(arrays, cents, beta)
    sims = gamma_sims(arrays, profile, CATEGORIES, gamma)
    for cat in CATEGORIES:
        ca = arrays.categories[cat]
        totals = near[:, ca.rows] + sims[cat]
        want = oracle._totals_matrix(arrays, ca, cents, sims[cat], beta)
        assert totals.tobytes() == want.tobytes()
        got = _budget_pools([ca], [totals], np.array([max(pool, needed)]))
        ref = oracle._pools_batched(arrays, ca, cents, profile.vector(cat),
                                    beta, gamma, pool, needed, True)
        assert len(got.rows) == len(ref) == k
        _assert_rows_hold(got, 0, ref, arrays.ids)


def _assert_rows_hold(block, j, pools, row_ids):
    """Category ``j`` of centroid ``c`` in a pool block holds
    ``pools[c]``: its candidates, in order, are the positions with a
    finite cost (every test cost is finite), and their city-wide rows
    hold the pool's ids (``row_ids[row]``)."""
    for c, p in enumerate(pools):
        real = np.isfinite(block.costs[c, j])
        assert real.sum() == len(p.ids)
        assert row_ids[block.rows[c, j][real]].tobytes() == p.ids.tobytes()
        for name in ("costs", "scores"):
            assert getattr(block, name)[c, j][real].tobytes() == \
                getattr(p, name).tobytes()


@st.composite
def _pools(draw):
    """1-4 pools of unequal length with small integer costs and scores,
    so ratio ties are common, and a budget around the greedy cost."""
    pools = []
    next_id = 0
    for j in range(draw(st.integers(1, 4), label="categories")):
        count = draw(st.integers(1, 3), label=f"count{j}")
        size = draw(st.integers(count, count + 8), label=f"size{j}")
        costs = draw(st.lists(st.integers(1, 6), min_size=size,
                              max_size=size), label=f"costs{j}")
        scores = draw(st.lists(st.integers(0, 4), min_size=size,
                               max_size=size), label=f"scores{j}")
        pools.append(oracle._Pool(np.arange(next_id, next_id + size,
                                     dtype=np.int64),
                           np.array(costs, dtype=float),
                           np.array(scores, dtype=float), count))
        next_id += size
    greedy = math.fsum(c for p in pools for c in p.costs[:p.count])
    budget = draw(st.floats(0.0, greedy), label="budget")
    return tuple(pools), budget


@given(case=_pools())
@settings(max_examples=300, deadline=None)
def test_padded_repair_matches_per_slot_repair(case):
    pools, budget = case
    try:
        want = oracle._repair_budget_per_slot(pools, budget)
    except InfeasibleQueryError as exc:
        with pytest.raises(InfeasibleQueryError) as raised:
            oracle._repair_budget_padded(pools, budget)
        assert str(raised.value) == str(exc)
        return
    assert oracle._repair_budget_padded(pools, budget) == want


#: City-wide row of a stand-in POI id: any mapping that is not the
#: identity shows a kernel reading ids where it should read rows.
_ROW_OFFSET = 1000


@dataclass(frozen=True)
class _Category:
    """The columns of ``CategoryArrays`` that budget pools read."""

    ids: np.ndarray
    costs: np.ndarray
    cost_order: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        return self.ids + _ROW_OFFSET

    def __len__(self) -> int:
        return len(self.ids)


#: Decimal costs whose float sums depend on the order of addition.
_COSTS = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1, 1.3, 2.2, 3.3])


@st.composite
def _round(draw):
    """One budgeted round: 1-6 centroids over 1-4 categories, each a
    stand-in ``CategoryArrays`` (shuffled ids, decimal costs with
    repeats, its ``(cost, id)`` order) with a tie-heavy ``(k, n)``
    score matrix, a pool cut, and a budget that is either arbitrary or
    exactly on (or one ulp under) the greedy cost of one centroid or
    the floor -- where a budget test that adds in another order, or a
    centroid that takes another centroid's swap, picks differently."""
    k = draw(st.integers(1, 6), label="k")
    cas, counts, totals, cuts = [], [], [], []
    next_id = 0
    for j in range(draw(st.integers(1, 4), label="categories")):
        count = draw(st.integers(1, 4), label=f"count{j}")
        n = draw(st.integers(count, count + 6), label=f"n{j}")
        ids = np.array(draw(st.permutations(range(next_id, next_id + n)),
                            label=f"ids{j}"), dtype=np.int64)
        next_id += n
        costs = np.array(draw(st.lists(_COSTS, min_size=n, max_size=n),
                              label=f"costs{j}"))
        cas.append(_Category(ids, costs, np.lexsort((ids, costs))))
        counts.append(count)
        totals.append(np.array(draw(st.lists(
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
            min_size=k, max_size=k), label=f"totals{j}"), dtype=float))
        cuts.append(max(draw(st.integers(1, n + 1), label=f"pool{j}"),
                        count))
    greedy = [ordered_sum(c for ca, t, cut, count in
                          zip(cas, totals, cuts, counts)
                          for c in ca.costs[_select_rows(t, ca.ids, cut)[
                              row, :count]].tolist())
              for row in range(k)]
    floor = ordered_sum(c for ca, count in zip(cas, counts)
                        for c in ca.costs[ca.cost_order[:count]].tolist())
    edge = draw(st.sampled_from(greedy + [floor]), label="edge")
    budget = draw(st.one_of(st.floats(0.0, max(greedy)), st.just(edge),
                            st.just(math.nextafter(edge, 0.0))),
                  label="budget")
    return cas, counts, totals, cuts, budget


@given(case=_round(),
       elements=st.sampled_from([1, 40, assembly._REPAIR_ELEMENTS]))
@settings(max_examples=400, deadline=None)
def test_one_repair_per_round_matches_per_centroid_repair(case, elements):
    cas, counts, totals, cuts, budget = case
    per_category = [oracle._budget_pools_per_centroid(ca, t, cut, count)
                    for ca, t, cut, count in zip(cas, totals, cuts, counts)]
    try:
        want = []
        for pools in zip(*per_category):
            chosen = oracle._repair_budget_padded(pools, budget)
            want.append([int(p.ids[i]) for p, picks in zip(pools, chosen)
                         for i in picks])
    except InfeasibleQueryError as exc:
        with pytest.raises(InfeasibleQueryError) as raised:
            _cheapest_fill(cas, counts, budget)
        assert str(raised.value) == str(exc)
        return
    pools = _budget_pools(cas, totals, np.array(cuts))
    row_ids = np.arange(max(len(ca) for ca in cas) * len(cas)
                        + _ROW_OFFSET) - _ROW_OFFSET
    for j, per_centroid in enumerate(per_category):
        _assert_rows_hold(pools, j, per_centroid, row_ids)
    cheapest = _cheapest_fill(cas, counts, budget)
    with mock.patch.object(assembly, "_REPAIR_ELEMENTS", elements):
        got = _repair_budget(pools, np.array(counts), cheapest, budget)
    assert row_ids[got].tolist() == want

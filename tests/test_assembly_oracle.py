"""The assembly kernel's whole-array pieces vs their former per-category
and per-slot forms, kept verbatim in ``tests/assembly_oracle.py``.

Three properties, each compared by ``tobytes`` or index equality:

1. batched selection (one partition and one row-keyed lexsort for all
   centroids) returns, row for row, what ``_top_rows`` returns for one
   centroid -- on tie-heavy integer-valued totals with shuffled ids, at
   every cut from 1 to ``n + 1``;
2. each category's column slice of the city-wide ``near`` matrix, plus
   its ``gamma * cos``, is ``_totals_matrix`` byte for byte, and the
   budget pools built from it are ``_pools_batched``'s;
3. the padded ``(slots, width)`` repair picks exactly what the per-slot
   repair picks, across 1-4 categories with unequal pool lengths and
   tie-heavy integer costs and scores, fallbacks and infeasible floors
   included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import assembly_oracle as oracle
from repro.core.assembly import (
    InfeasibleQueryError,
    _budget_pools,
    _near_matrix,
    _Pool,
    _repair_budget,
    _select_rows,
    gamma_sims,
)
from repro.data.poi import CATEGORIES


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
        want = oracle._totals_matrix(ca, cents, sims[cat], beta,
                                     arrays.max_distance_km)
        assert totals.tobytes() == want.tobytes()
        cut = max(pool, needed)
        got = _budget_pools(ca, totals, cut, needed)
        ref = oracle._pools_batched(ca, cents, profile.vector(cat), beta,
                                    gamma, arrays.max_distance_km, pool,
                                    needed, True)
        assert len(got) == len(ref) == k
        for a, b in zip(got, ref):
            assert a.count == b.count
            for name in ("ids", "costs", "scores"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


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
        pools.append(_Pool(np.arange(next_id, next_id + size,
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
            _repair_budget(pools, budget)
        assert str(raised.value) == str(exc)
        return
    assert _repair_budget(pools, budget) == want

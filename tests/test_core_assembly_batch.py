"""The batched assembly kernel vs the object-path oracle.

Four guarantees:

1. ``assemble_composite_items`` is **bit-identical** to the object-path
   oracle (``tests/assembly_oracle.py``) run once per centroid -- same
   POI ids, same in-CI order (the ``(-score, id)`` tie-break), same
   centroids -- across random centroids, weights, pool sizes and
   budgets (property-based);
2. the same holds on tiny, tie-heavy geometries: coincident POIs,
   clusters equidistant from the centroid, distant clusters, a pool
   larger than the category, and cheap rows far from the centroid that
   only the budget repair can reach;
3. under a budget that binds (drawn between the cheapest conforming
   cost and the greedy pick's cost, so every CI swaps at least once)
   the array repair picks exactly what the oracle's Python-loop repair
   picks, within budget, including the cheapest-fill fallback and the
   infeasible branches; a count above ``candidate_pool`` still fills
   every slot;
4. the scan counters are exact and flow end to end:
   ``collect_assembly_counters`` around a build, and the serving
   engine's ``stats()["assembly"]`` / windowed ``assembly.rows_scored``.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import assembly_oracle as oracle
from conftest import assemble_cis, make_poi
from repro.core.arrays import CityArrays
import repro.core.assembly as assembly
from repro.core.assembly import (
    InfeasibleQueryError,
    assemble_composite_items,
    collect_assembly_counters,
)
from repro.core.query import DEFAULT_QUERY, GroupQuery
from repro.data.dataset import POIDataset
from repro.data.poi import Category
from repro.profiles.generator import GroupGenerator
from repro.profiles.vectors import ItemVectorIndex


@pytest.fixture(scope="module")
def arrays(app):
    return CityArrays.of(app.dataset, app.item_index)


@pytest.fixture(scope="module")
def profile(uniform_group):
    return uniform_group.profile()


def _keys(cis):
    """The full observable identity of a CI list: ids in selection
    order (which exposes the pool's (-score, id) order) + centroid."""
    return [([p.id for p in ci.pois], ci.centroid) for ci in cis]


def _rows_per_build(dataset, query, k: int, rounds: int) -> int:
    """Rows a full scan touches: every requested category's rows, for
    every centroid, in every assembly round."""
    return rounds * k * sum(len(dataset.by_category(cat))
                            for cat in query.requested_categories())


def _tiny_city(lat_offsets, lon_offsets, *, costs=None,
               base=(48.85, 2.35)):
    """A one-category (``rest``) dataset with POIs at base + per-POI
    offsets, its fitted index and a matching profile."""
    costs = costs or [1.0 + (i % 3) for i in range(len(lat_offsets))]
    pois = [make_poi(i, cat="rest", lat=base[0] + dlat, lon=base[1] + dlon,
                     cost=cost)
            for i, (dlat, dlon, cost) in enumerate(zip(lat_offsets,
                                                       lon_offsets, costs))]
    dataset = POIDataset(pois, city="tiny")
    index = ItemVectorIndex.fit(dataset, lda_iterations=5, seed=3)
    prof = GroupGenerator(index.schema, seed=5).uniform_group(3).profile()
    return dataset, index, prof


def _floor(dataset, query) -> float:
    """The cheapest conforming cost, summed as the repair's feasibility
    floor sums it: each category's ``(cost, id)``-cheapest rows, added
    left to right across categories."""
    total = 0.0
    for cat in query.requested_categories():
        cheapest = sorted(dataset.by_category(cat),
                          key=lambda p: (p.cost, p.id))[:query.count(cat)]
        for p in cheapest:
            total += p.cost
    return total


def _stepped_city(rest_costs, attr_costs=()):
    """``rest`` and ``attr`` POIs stepping ~1.1 km north of the centroid
    in list order, so with ``gamma=0`` each category's score order is
    its list order (put expensive rows first to make the budget bind)."""
    pois = [make_poi(i, cat=cat, lat=48.85 + 0.01 * j, lon=2.35, cost=cost)
            for i, (cat, j, cost) in enumerate(
                [("rest", j, c) for j, c in enumerate(rest_costs)]
                + [("attr", j, c) for j, c in enumerate(attr_costs)])]
    dataset = POIDataset(pois, city="stepped")
    index = ItemVectorIndex.fit(dataset, lda_iterations=5, seed=3)
    prof = GroupGenerator(index.schema, seed=5).uniform_group(3).profile()
    return dataset, index, prof


def _compare(dataset, index, prof, cents, query, *, beta=1.0, gamma=1.0,
             pool=60):
    """Kernel vs oracle on the same inputs; the counters must show a
    full scan of every requested row for every centroid."""
    ref = oracle.assemble_composite_items(dataset, cents, query, prof, index,
                                          beta=beta, gamma=gamma,
                                          candidate_pool=pool)
    with collect_assembly_counters() as scans:
        got = assemble_cis(dataset, cents, query, prof, index,
                           beta=beta, gamma=gamma,
                           candidate_pool=pool)
    assert _keys(got) == _keys(ref)
    expected = _rows_per_build(dataset, query, len(cents), 1)
    assert scans.rows_scored == scans.rows_total == expected


class TestBatchedEqualsReference:
    """Property: batched output is bit-for-bit the object-path oracle."""

    @given(data=st.data())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_centroids_weights_pools(self, data, app, arrays,
                                            profile, small_city):
        coords = small_city.coordinates()
        lat_lo, lon_lo = coords.min(axis=0) - 0.01
        lat_hi, lon_hi = coords.max(axis=0) + 0.01
        k = data.draw(st.integers(1, 4), label="k")
        cents = np.array([
            [data.draw(st.floats(lat_lo, lat_hi), label=f"lat{i}"),
             data.draw(st.floats(lon_lo, lon_hi), label=f"lon{i}")]
            for i in range(k)
        ])
        beta = data.draw(st.floats(0.0, 8.0), label="beta")
        gamma = data.draw(st.floats(0.0, 8.0), label="gamma")
        pool = data.draw(st.integers(1, 80), label="pool")
        budget = data.draw(st.one_of(st.just(math.inf),
                                     st.floats(20.0, 60.0)), label="budget")
        query = GroupQuery.of(acco=1, trans=1, rest=1,
                              attr=data.draw(st.integers(1, 3), label="attr"),
                              budget=budget)

        try:
            ref = [oracle.assemble_composite_item(
                       app.dataset, (float(la), float(lo)), query, profile,
                       app.item_index, beta=beta, gamma=gamma,
                       candidate_pool=pool)
                   for la, lo in cents]
        except InfeasibleQueryError:
            with pytest.raises(InfeasibleQueryError):
                assemble_composite_items(
                    app.dataset, cents, query, profile, app.item_index,
                    beta=beta, gamma=gamma, candidate_pool=pool,
                    arrays=arrays)
            return

        batched = assemble_cis(
            app.dataset, cents, query, profile, app.item_index,
            beta=beta, gamma=gamma, candidate_pool=pool, arrays=arrays)
        assert _keys(batched) == _keys(ref)

    def test_object_path_plural_matches_loop(self, app, profile):
        """Without an explicit bundle the kernel scores against the
        pooled one and still equals the object-path loop."""
        cents = np.asarray(app.dataset.coordinates()[:3], dtype=float)
        loop = [oracle.assemble_composite_item(
                    app.dataset, (float(la), float(lo)), DEFAULT_QUERY,
                    profile, app.item_index)
                for la, lo in cents]
        plural = assemble_cis(app.dataset, cents, DEFAULT_QUERY,
                              profile, app.item_index)
        assert _keys(plural) == _keys(loop)

    def test_centroid_shape_validated(self, app, profile):
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            assemble_composite_items(app.dataset, np.zeros((2, 3)),
                                     DEFAULT_QUERY, profile, app.item_index)

    def test_zero_centroids_build_nothing(self, app, profile):
        rows = assemble_composite_items(
            app.dataset, np.empty((0, 2)), DEFAULT_QUERY, profile,
            app.item_index)
        assert rows.shape == (0, DEFAULT_QUERY.total_items())
        assert assemble_cis(
            app.dataset, np.empty((0, 2)), DEFAULT_QUERY, profile,
            app.item_index) == []


class TestTieHeavyGeometries:
    def test_coincident_pois_match_oracle(self):
        """Twelve POIs ~1 m apart: near-equal distances everywhere."""
        offs = [i * 1e-5 for i in range(12)]
        dataset, index, prof = _tiny_city(offs, offs)
        _compare(dataset, index, prof, np.array([[48.85, 2.35]]),
                 GroupQuery.of(rest=2))

    def test_pool_larger_than_category_matches_oracle(self, app, profile):
        """Under a budget the repair phase reads the whole candidate
        pool; a pool larger than the category takes every row."""
        _compare(app.dataset, app.item_index, profile,
                 np.asarray([app.dataset.coordinates().mean(axis=0)]),
                 GroupQuery.of(rest=1, budget=50.0), pool=10_000)

    def test_equidistant_clusters_match_oracle(self):
        """Two clusters mirrored about the centroid: exact score ties
        that only the id tie-break orders."""
        n = 8
        offs = [0.01] * n + [-0.01] * n
        dataset, index, prof = _tiny_city(
            offs, [j * 1e-5 for j in range(n)] * 2)
        _compare(dataset, index, prof, np.array([[48.85, 2.35]]),
                 GroupQuery.of(rest=2), gamma=0.0)

    def test_distant_clusters_match_oracle(self):
        """Cluster A at the centroid, cluster B ~11 km away."""
        n = 8
        offs = [j * 1e-5 for j in range(n)] + [0.1 + j * 1e-5
                                               for j in range(n)]
        dataset, index, prof = _tiny_city(offs, [0.0] * (2 * n))
        _compare(dataset, index, prof, np.array([[48.85, 2.35]]),
                 GroupQuery.of(rest=2), gamma=0.0)

    def test_cheap_far_rows_reach_repair(self):
        """Under a budget the cost-ordered repair candidates must be in
        the pool even when they all sit in the far cluster."""
        n = 10
        offs = [j * 1e-5 for j in range(n)] + [0.1 + j * 1e-5
                                               for j in range(n)]
        costs = [9.0] * n + [0.5] * n  # far rows cheap
        dataset, index, prof = _tiny_city(offs, [0.0] * (2 * n),
                                          costs=costs)
        _compare(dataset, index, prof, np.array([[48.85, 2.35]]),
                 GroupQuery.of(rest=2, budget=2.0), gamma=0.0)


class TestBindingBudget:
    """The array repair against the oracle's Python-loop repair."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_binding_budget_matches_oracle(self, data, app, arrays, profile,
                                           small_city):
        coords = small_city.coordinates()
        lat_lo, lon_lo = coords.min(axis=0)
        lat_hi, lon_hi = coords.max(axis=0)
        k = data.draw(st.integers(1, 3), label="k")
        cents = np.array([
            [data.draw(st.floats(lat_lo, lat_hi), label=f"lat{i}"),
             data.draw(st.floats(lon_lo, lon_hi), label=f"lon{i}")]
            for i in range(k)
        ])
        beta = data.draw(st.floats(0.0, 8.0), label="beta")
        gamma = data.draw(st.floats(0.0, 8.0), label="gamma")
        pool = data.draw(st.integers(1, 80), label="pool")
        counts = dict(acco=1, trans=1, rest=1,
                      attr=data.draw(st.integers(1, 4), label="attr"))
        greedy = oracle.assemble_composite_items(
            app.dataset, cents, GroupQuery.of(**counts), profile,
            app.item_index, beta=beta, gamma=gamma, candidate_pool=pool)
        floor = _floor(app.dataset, GroupQuery.of(**counts))
        greedy_cost = min(ci.total_cost() for ci in greedy)
        assume(floor < greedy_cost)
        budget = data.draw(st.floats(floor, greedy_cost, exclude_max=True),
                           label="budget")
        query = GroupQuery.of(**counts, budget=budget)

        try:
            ref = oracle.assemble_composite_items(
                app.dataset, cents, query, profile, app.item_index,
                beta=beta, gamma=gamma, candidate_pool=pool)
        except InfeasibleQueryError:
            with pytest.raises(InfeasibleQueryError):
                assemble_composite_items(
                    app.dataset, cents, query, profile, app.item_index,
                    beta=beta, gamma=gamma, candidate_pool=pool,
                    arrays=arrays)
            return

        got = assemble_cis(
            app.dataset, cents, query, profile, app.item_index,
            beta=beta, gamma=gamma, candidate_pool=pool, arrays=arrays)
        assert _keys(got) == _keys(ref)
        for ci in got:
            assert ci.total_cost() <= budget
            assert ci.is_valid(query)

    def test_no_cheaper_swap_falls_back_to_cheapest_fill(self):
        """Repair swaps to the three cheapest rests in slot order 0.7,
        1.1, 0.1 (ids 5, 4, 3), which sums one ulp over the floor
        (0.1 + 0.7 + 1.1); no cheaper swap is left, so the cheapest fill
        installs them in ``(cost, id)`` order (ids 3, 5, 4), which
        fits."""
        dataset, index, prof = _stepped_city([9.0, 9.0, 9.0, 0.1, 1.1, 0.7])
        query = GroupQuery.of(rest=3, budget=_floor(dataset,
                                                    GroupQuery.of(rest=3)))
        _compare(dataset, index, prof, np.array([[48.85, 2.35]]), query,
                 gamma=0.0)
        ci = assemble_cis(dataset, np.array([[48.85, 2.35]]),
                          query, prof, index, gamma=0.0)[0]
        assert [p.id for p in ci.pois] == [3, 5, 4]
        assert ci.is_valid(query)

    def test_floor_is_summed_as_the_fallback_sums_it(self):
        """The floor adds the cheapest selection's costs in the order
        the fallback installs them, so a budget at the floor always
        yields a CI.  Summed per category instead, these costs come to
        an ulp less, and a budget there is now over the floor; it used
        to pass the floor and then raise after the fallback."""
        dataset, index, prof = _stepped_city([9.0, 9.0, 9.0, 0.6, 0.1, 1.1],
                                             [9.0, 9.0, 1.1, 0.4])
        counts = dict(rest=3, attr=2)
        floor = _floor(dataset, GroupQuery.of(**counts))
        per_category = (0.1 + 0.6 + 1.1) + (0.4 + 1.1)
        assert per_category == math.nextafter(floor, 0.0)
        cents = np.array([[48.85, 2.35]])
        for assemble in (oracle.assemble_composite_items, assemble_cis):
            with pytest.raises(InfeasibleQueryError, match="even the cheapest"):
                assemble(dataset, cents,
                         GroupQuery.of(**counts, budget=per_category),
                         prof, index, gamma=0.0)
            query = GroupQuery.of(**counts, budget=floor)
            ci = assemble(dataset, cents, query, prof, index, gamma=0.0)[0]
            assert ci.is_valid(query)
        _compare(dataset, index, prof, cents, query, gamma=0.0)

    def test_floor_over_budget_raises(self):
        dataset, index, prof = _stepped_city([9.0, 9.0, 0.5, 0.25])
        floor = _floor(dataset, GroupQuery.of(rest=2))
        query = GroupQuery.of(rest=2, budget=math.nextafter(floor, 0.0))
        cents = np.array([[48.85, 2.35]])
        for assemble in (oracle.assemble_composite_items, assemble_cis):
            with pytest.raises(InfeasibleQueryError, match="cheapest"):
                assemble(dataset, cents, query, prof, index, gamma=0.0)

    @pytest.mark.parametrize("budget", [math.inf, 60.0])
    def test_count_above_pool_fills_every_slot(self, app, arrays, profile,
                                               budget):
        """``candidate_pool=1`` with three attractions: every pool is
        sized to its count, so the CI is valid (it used to carry one
        attraction)."""
        query = GroupQuery.of(acco=1, trans=1, rest=1, attr=3, budget=budget)
        cents = np.asarray([app.dataset.coordinates().mean(axis=0)])
        _compare(app.dataset, app.item_index, profile, cents, query, pool=1)
        ci = assemble_cis(app.dataset, cents, query, profile,
                          app.item_index, candidate_pool=1,
                          arrays=arrays)[0]
        assert ci.category_counts()[Category.ATTRACTION] == 3
        assert ci.is_valid(query)


    def test_full_count_round_repairs_in_bounded_chunks(self, app, arrays,
                                                        profile,
                                                        monkeypatch):
        """Every category at full count for 20 centroids: each repair
        chunk holds as many centroids as fit the element bound (at
        least one), and the picks do not depend on the cut."""
        counts = {cat: len(app.dataset.by_category(cat))
                  for cat in Category}
        query = GroupQuery(counts=counts, budget=1e9)
        rng = np.random.default_rng(4)
        coords = app.dataset.coordinates()
        cents = coords[rng.choice(len(coords), size=20)]
        chunks = []
        repair_chunk = assembly._repair_chunk

        def spy(pools, *args):
            chunks.append(pools.rows.shape)
            return repair_chunk(pools, *args)

        monkeypatch.setattr(assembly, "_repair_chunk", spy)
        got = assemble_cis(app.dataset, cents, query, profile,
                           app.item_index, arrays=arrays)
        per_centroid = sum(counts.values()) * chunks[0][2]
        step = max(1, assembly._REPAIR_ELEMENTS // per_centroid)
        assert [shape[0] for shape in chunks] == (
            [step] * (20 // step) + ([20 % step] if 20 % step else []))
        monkeypatch.setattr(assembly, "_REPAIR_ELEMENTS", 1 << 40)
        chunks.clear()
        whole = assemble_cis(app.dataset, cents, query, profile,
                             app.item_index, arrays=arrays)
        assert [shape[0] for shape in chunks] == [20]
        assert _keys(got) == _keys(whole)
        assert all(ci.is_valid(query) for ci in got)


    def test_full_count_round_peak_does_not_scale_with_k(self, app,
                                                          arrays, profile):
        """Every category at full count, at its floor budget so a repair
        pass runs: 20 centroids peak at no more than twice the memory
        of one, where one tensor for all of them would take ~20x."""
        counts = {cat: len(app.dataset.by_category(cat)) for cat in Category}
        query = GroupQuery(counts=counts,
                           budget=_floor(app.dataset, GroupQuery(counts)))
        coords = app.dataset.coordinates()
        peaks = []
        for k in (1, 20):
            cents = coords[np.random.default_rng(5).choice(len(coords), k)]
            tracemalloc.start()
            try:
                assemble_cis(app.dataset, cents, query, profile,
                             app.item_index, arrays=arrays)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0], peaks


class TestCounterPlumbing:
    def test_no_collector_is_a_noop(self, app, arrays, profile):
        # Just exercising the path with no contextvar set.
        assemble_cis(
            app.dataset, np.asarray([app.dataset.coordinates().mean(axis=0)]),
            DEFAULT_QUERY, profile, app.item_index, arrays=arrays)

    def test_nested_collectors_do_not_bleed(self, app, arrays, profile):
        cents = np.asarray([app.dataset.coordinates().mean(axis=0)])
        with collect_assembly_counters() as outer:
            with collect_assembly_counters() as inner:
                assemble_cis(app.dataset, cents, DEFAULT_QUERY,
                             profile, app.item_index,
                             arrays=arrays)
        assert inner.rows_total > 0
        assert outer.rows_total == 0

    def test_builder_build_records_scans(self, app, profile):
        with collect_assembly_counters() as scans:
            app.kfc.build(profile, DEFAULT_QUERY)
        expected = _rows_per_build(app.dataset, DEFAULT_QUERY, app.kfc.k,
                                   1 + app.kfc.refine_iterations)
        assert scans.rows_scored == scans.rows_total == expected

    def test_engine_surfaces_assembly_stats(self, app):
        from repro.service import (BuildRequest, CityRegistry, GroupSpec,
                                   PackageService)
        registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
        registry.register(app.dataset, app.item_index, name="paris")
        service = PackageService(registry, cache_capacity=8)
        request = BuildRequest(city="paris",
                               group_spec=GroupSpec(size=3, uniform=True,
                                                    seed=5))
        service.build(request)
        builder = registry.entry("paris").builder
        expected = _rows_per_build(app.dataset, request.query, builder.k,
                                   1 + builder.refine_iterations)
        stats = service.stats()
        assembly = stats["assembly"]
        assert assembly["rows_scored"] == assembly["rows_total"] == expected
        series = stats["metrics"]["windows"]["series"]
        assert "assembly.rows_scored" in series
        assert "assembly.cells_pruned" not in series

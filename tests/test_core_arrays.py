"""Tests for the CityArrays compute layer.

Three guarantees matter:

1. the bundle is a faithful columnar view of the dataset + item index
   (alignment, projection, cost order);
2. it survives pickling intact (shard workers receive it across a
   process boundary);
3. building against it is **byte-identical** to the object-path oracle
   in ``tests/assembly_oracle.py`` -- the golden fixtures in
   ``tests/data/golden_packages.json`` were captured from the
   pre-refactor implementation and pin package POI ids, per-CI
   ordering, centroids and quality metrics bit-for-bit (``float.hex``)
   across 3 cities x 3 seeds plus one budgeted (repair-path) build per
   city.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

import assembly_oracle as oracle
import repro.core.kfc as kfc
from repro.core.arrays import CityArrays, project_coords
from repro.core.assembly import InfeasibleQueryError, assemble_composite_items
from repro.core.builder import GroupTravel
from repro.core.kfc import KFCBuilder
from repro.core.objective import (
    evaluate_objective,
    normalized_distances_to_centroids,
)
from repro.core.query import DEFAULT_QUERY, GroupQuery
from repro.data.dataset import POIDataset
from repro.data.poi import CATEGORIES, Category
from repro.data.synthetic import generate_city
from repro.geo.distance import equirectangular_km
from repro.profiles.generator import GroupGenerator
from repro.profiles.vectors import ItemVectorIndex

from conftest import assemble_cis, make_poi

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_packages.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="session")
def arrays(app):
    return app.arrays


@pytest.fixture()
def profile(uniform_group):
    return uniform_group.profile()


def _oracle_rows(dataset, centroids, query, profile, item_index, **kwargs):
    """The object-path oracle's CIs as the kernel's ``(k, slots)`` row
    matrix: each CI's members mapped to their bundle rows, in order."""
    cis = oracle.assemble_composite_items(dataset, centroids, query, profile,
                                          item_index, **kwargs)
    arrays = kwargs["arrays"]
    return np.array([[arrays.row_of[p.id] for p in ci.pois] for ci in cis],
                    dtype=np.int64).reshape(len(cis), query.total_items())


def _use_object_path(monkeypatch) -> None:
    """Run KFC builds with the object-path oracle in place of the
    batched kernel (the builder looks the kernel up as a module
    global on every assembly round), every round passing its rows."""
    monkeypatch.setattr(kfc, "assemble_composite_items", _oracle_rows)


@pytest.fixture()
def center(small_city):
    lat, lon = small_city.coordinates().mean(axis=0)
    return (float(lat), float(lon))


class TestBundle:
    def test_row_alignment(self, app, arrays):
        dataset = app.dataset
        assert len(arrays) == len(dataset)
        assert list(arrays.ids) == list(dataset.ids)
        for cat in CATEGORIES:
            pois = dataset.by_category(cat)
            ca = arrays.categories[cat]
            assert list(ca.ids) == [p.id for p in pois]
            assert ca.vectors.shape == (len(pois), app.schema.size(cat))
            for row, poi in enumerate(pois):
                assert arrays.lats[ca.rows[row]] == poi.lat
                assert arrays.lons[ca.rows[row]] == poi.lon
                assert ca.costs[row] == poi.cost
                assert np.array_equal(ca.vectors[row],
                                      app.item_index.vector(poi))
                # rows index back into the city-wide columns
                assert arrays.ids[ca.rows[row]] == poi.id

    def test_projection_matches_builder(self, app, arrays):
        xy, origin = project_coords(app.dataset.coordinates())
        assert arrays.origin == origin == app.kfc._origin
        assert np.array_equal(arrays.xy, xy)

    def test_max_distance_is_the_papers_normalizer(self, app, arrays):
        assert arrays.max_distance_km == app.dataset.max_distance_km

    def test_cost_order(self, arrays):
        for ca in arrays.categories.values():
            keyed = [(ca.costs[r], ca.ids[r]) for r in ca.cost_order]
            assert keyed == sorted(keyed)

    def test_vector_norms(self, arrays):
        for ca in arrays.categories.values():
            if len(ca):
                assert np.array_equal(ca.vector_norms,
                                      np.linalg.norm(ca.vectors, axis=1))

    def test_pooled_per_dataset_index_pair(self, app, arrays):
        assert CityArrays.of(app.dataset, app.item_index) is arrays


class TestPickle:
    def test_round_trip_preserves_every_array(self, arrays):
        clone = pickle.loads(pickle.dumps(arrays))
        assert clone.city == arrays.city
        assert clone.origin == arrays.origin
        assert clone.max_distance_km == arrays.max_distance_km
        assert np.array_equal(clone.ids, arrays.ids)
        assert np.array_equal(clone.xy, arrays.xy)
        assert clone.row_of == arrays.row_of
        for cat in CATEGORIES:
            ca, cb = arrays.categories[cat], clone.categories[cat]
            for field in ("ids", "rows", "costs", "vectors", "vector_norms",
                          "cost_order"):
                assert np.array_equal(getattr(ca, field), getattr(cb, field))

    def test_unpickled_bundle_builds_identical_packages(self, app, profile):
        """What a shard worker receives must serve the same bytes."""
        clone = pickle.loads(pickle.dumps(app.arrays))
        builder = KFCBuilder(app.dataset, app.item_index, seed=7,
                             arrays=clone)
        a = app.kfc.build(profile, DEFAULT_QUERY)
        b = builder.build(profile, DEFAULT_QUERY)
        assert ([[p.id for p in ci.pois] for ci in a.composite_items]
                == [[p.id for p in ci.pois] for ci in b.composite_items])


class TestEquivalence:
    """Array path vs object path: identical results, not just close."""

    def test_assembly_identical(self, app, arrays, profile, center,
                                default_query):
        with_arrays = assemble_cis(
            app.dataset, [center], default_query, profile, app.item_index,
            arrays=arrays)[0]
        without = oracle.assemble_composite_item(
            app.dataset, center, default_query, profile, app.item_index)
        assert [p.id for p in with_arrays.pois] == [p.id for p in without.pois]
        assert with_arrays.centroid == without.centroid

    def test_assembly_identical_under_budget(self, app, arrays, profile,
                                             center):
        query = GroupQuery.of(acco=1, trans=1, rest=1, attr=3, budget=15.0)
        with_arrays = assemble_cis(
            app.dataset, [center], query, profile, app.item_index,
            arrays=arrays)[0]
        without = oracle.assemble_composite_item(
            app.dataset, center, query, profile, app.item_index)
        assert [p.id for p in with_arrays.pois] == [p.id for p in without.pois]
        assert with_arrays.is_valid(query)

    def test_assembly_identical_across_centroids(self, app, arrays, profile,
                                                 default_query, small_city):
        coords = small_city.coordinates()
        rng = np.random.default_rng(5)
        for _ in range(5):
            lat = float(rng.uniform(coords[:, 0].min(), coords[:, 0].max()))
            lon = float(rng.uniform(coords[:, 1].min(), coords[:, 1].max()))
            a = assemble_cis(app.dataset, [(lat, lon)],
                             default_query, profile,
                             app.item_index, arrays=arrays)[0]
            b = oracle.assemble_composite_item(app.dataset, (lat, lon),
                                               default_query, profile,
                                               app.item_index)
            assert [p.id for p in a.pois] == [p.id for p in b.pois]

    def test_kfc_build_identical(self, app, profile, default_query,
                                 monkeypatch):
        a = app.kfc.build(profile, default_query)
        _use_object_path(monkeypatch)
        b = app.kfc.build(profile, default_query)
        assert ([[p.id for p in ci.pois] for ci in a.composite_items]
                == [[p.id for p in ci.pois] for ci in b.composite_items])
        assert [ci.centroid for ci in a.composite_items] \
            == [ci.centroid for ci in b.composite_items]

    def test_objective_identical(self, app, arrays, profile, default_query):
        package = app.kfc.build(profile, default_query)
        with_arrays = evaluate_objective(app.dataset, package, profile,
                                         app.item_index, arrays=arrays)
        without = evaluate_objective(app.dataset, package, profile,
                                     app.item_index)
        assert with_arrays == without

    def test_normalized_distances_identical(self, app, arrays):
        """The bundle's columns give the distances the POI coordinates
        give."""
        centroids = app.kfc.place_centroids()
        coords = app.dataset.coordinates()
        want = equirectangular_km(
            coords[:, 0][:, None], coords[:, 1][:, None],
            centroids[:, 0][None, :], centroids[:, 1][None, :],
        ) / app.dataset.max_distance_km
        got = normalized_distances_to_centroids(arrays, centroids)
        assert np.array_equal(got, np.clip(want, 0.0, None))


class TestGoldenDeterminism:
    """Refactored builds must be byte-identical to the pre-refactor
    implementation: POI ids, per-CI ordering, centroids and quality
    metrics, across 3 cities x 3 seeds plus a budgeted build each."""

    @pytest.fixture(scope="class")
    def systems(self, golden):
        cfg = golden["config"]
        out = {}
        for city in {b["city"] for b in golden["builds"]}:
            dataset = generate_city(city, seed=cfg["city_seed"],
                                    scale=cfg["scale"])
            app = GroupTravel(dataset, seed=cfg["app_seed"],
                              lda_iterations=cfg["lda_iterations"])
            group = GroupGenerator(
                app.schema, seed=cfg["group_seed"]
            ).uniform_group(cfg["group_size"])
            out[city] = (app, group.profile())
        return out

    def _check(self, pkg, profile, item_index, build):
        assert [[p.id for p in ci.pois] for ci in pkg.composite_items] \
            == [ci["poi_ids"] for ci in build["cis"]]
        assert [[float.hex(c) for c in ci.centroid]
                for ci in pkg.composite_items] \
            == [ci["centroid"] for ci in build["cis"]]
        assert {
            "representativity_km": float.hex(pkg.representativity()),
            "within_ci_km": float.hex(pkg.raw_cohesiveness_sum()),
            "personalization": float.hex(
                pkg.personalization(profile, item_index)),
        } == build["metrics"]

    def test_covers_three_cities_three_seeds_and_budgets(self, golden):
        builds = golden["builds"]
        assert len({b["city"] for b in builds}) >= 3
        assert len({b["seed"] for b in builds}) >= 3
        assert sum(1 for b in builds if b["budget"] is not None) >= 3

    def _check_all(self, golden, systems):
        for build in golden["builds"]:
            app, profile = systems[build["city"]]
            query = (DEFAULT_QUERY if build["budget"] is None else
                     GroupQuery.of(acco=1, trans=1, rest=1, attr=3,
                                   budget=build["budget"]))
            pkg = app.kfc.build(profile, query, seed=build["seed"])
            self._check(pkg, profile, app.item_index, build)

    def test_array_path_matches_golden(self, golden, systems):
        self._check_all(golden, systems)

    def test_object_path_matches_golden(self, golden, systems, monkeypatch):
        """The oracle itself reproduces the fixtures, so the property
        tests compare the kernel against a pinned reference."""
        _use_object_path(monkeypatch)
        self._check_all(golden, systems)


class _ExplodingProfile:
    """A profile stand-in that fails the test if any scoring happens."""

    def vector(self, category):
        raise AssertionError(
            "profile.vector() was read before the feasibility guard"
        )


class TestEmptyCategoryGuard:
    """An empty (or undersized) category must raise InfeasibleQueryError
    before any scoring work -- no profile-vector reads, no distance
    passes for categories validated earlier."""

    @pytest.fixture(scope="class")
    def no_trans_dataset(self):
        pois = [make_poi(i, cat=cat, lat=48.85 + i * 1e-3, lon=2.35)
                for i, cat in enumerate(
                    ["acco", "rest", "attr", "attr", "attr", "acco", "rest"])]
        return POIDataset(pois, city="tiny")

    def test_empty_category_raises_before_scoring(self, app,
                                                  no_trans_dataset):
        with pytest.raises(InfeasibleQueryError, match="only 0"):
            assemble_composite_items(
                no_trans_dataset, [(48.85, 2.35)], DEFAULT_QUERY,
                _ExplodingProfile(), app.item_index)

    def test_empty_category_raises_on_array_path(self, no_trans_dataset):
        index = ItemVectorIndex.fit(no_trans_dataset, lda_iterations=5,
                                    seed=0)
        arrays = CityArrays.build(no_trans_dataset, index)
        assert len(arrays.categories[Category.TRANSPORTATION]) == 0
        with pytest.raises(InfeasibleQueryError, match="only 0"):
            assemble_composite_items(
                no_trans_dataset, [(48.85, 2.35)], DEFAULT_QUERY,
                _ExplodingProfile(), index, arrays=arrays)

    def test_undersized_category_raises_before_scoring(self, app):
        huge = GroupQuery.of(acco=10_000)
        with pytest.raises(InfeasibleQueryError, match="only"):
            assemble_composite_items(
                app.dataset, [(48.85, 2.35)], huge, _ExplodingProfile(),
                app.item_index, arrays=app.arrays)


class TestRepairBudget:
    def test_budgeted_builds_identical_and_valid(self, app, profile,
                                                 monkeypatch):
        base = app.kfc.build(profile, DEFAULT_QUERY)
        budget = round(
            0.85 * max(ci.total_cost() for ci in base.composite_items), 2)
        query = GroupQuery.of(acco=1, trans=1, rest=1, attr=3, budget=budget)
        a = app.kfc.build(profile, query)
        _use_object_path(monkeypatch)
        b = app.kfc.build(profile, query)
        assert a.is_valid(query)
        assert all(ci.total_cost() <= budget for ci in a.composite_items)
        assert ([[p.id for p in ci.pois] for ci in a.composite_items]
                == [[p.id for p in ci.pois] for ci in b.composite_items])

    def test_tight_budget_falls_back_to_cheapest_fill(self, app, arrays,
                                                      profile, center):
        """A budget barely above the cheapest conforming CI forces the
        repair loop all the way to the cheapest-fill fallback."""
        query = GroupQuery.of(acco=1, trans=1, rest=1, attr=3)
        pools = {cat: sorted(p.cost for p in app.dataset.by_category(cat))
                 for cat in query.requested_categories()}
        floor = sum(sum(costs[: query.count(cat)])
                    for cat, costs in pools.items())
        tight = GroupQuery.of(acco=1, trans=1, rest=1, attr=3,
                              budget=floor * 1.0001)
        ci = assemble_cis(app.dataset, [center], tight, profile,
                          app.item_index, arrays=arrays)[0]
        assert ci.is_valid(tight)
        legacy_ci = oracle.assemble_composite_item(app.dataset, center, tight,
                                                   profile, app.item_index)
        assert [p.id for p in ci.pois] == [p.id for p in legacy_ci.pois]


class TestServiceThreading:
    def test_registry_entry_carries_arrays(self):
        from repro.service.registry import CityRegistry

        registry = CityRegistry(seed=5, scale=0.2, lda_iterations=10)
        entry = registry.entry("paris")
        assert entry.arrays is not None
        assert entry.builder.arrays is entry.arrays
        assert registry.arrays("paris") is entry.arrays
        assert entry.arrays.city == "paris"
        assert len(entry.arrays) == len(entry.dataset)

    def test_sessions_generate_against_the_bundle(self, app, profile,
                                                  default_query):
        from repro.geo.rectangle import Rectangle

        package = app.kfc.build(profile, default_query)
        session = app.customize(package, profile)
        assert session.arrays is app.arrays
        coords = app.dataset.coordinates()
        rect = Rectangle(
            lat=float(coords[:, 0].mean()) + 0.005,
            lon=float(coords[:, 1].mean()) - 0.005,
            width=0.01, height=0.01,
        )
        index = session.generate(rect)
        assert session.package[index].is_valid(default_query)

"""The Section 4.2 metrics against ``tests/metrics_oracle.py``:
bit-identical (``float.hex``) for any package.

The array forms make one distance call per package and reuse each item
vector's memoized norm, so the packages are drawn to reach every case
that could tell them apart from the scalar loops: single-POI CIs (no
pairs), a POI shared by two CIs, ``k = 1`` (no centroid pairs), POIs
embedded by a live ``add_poi`` (new ids and a re-embedded one), and
item or profile vectors whose norms send ``cosine`` down its rescale
branch (tiny scales, all-zero categories).

A package fresh from a KFC build also carries its city-bundle rows, and
the service reads validity, cohesiveness and personalization from the
bundle (:func:`~repro.core.package.bundle_metrics`); those must equal
the object path and the oracle too, budgets exactly at a CI's cost
included.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import metrics_oracle
from repro.core.arrays import CityArrays
from repro.core.assembly import composite_items
from repro.core.package import TravelPackage, bundle_metrics, package_from_pois
from repro.core.query import GroupQuery
from repro.data.dataset import POIDataset
from repro.data.poi import CATEGORIES, POI
from repro.metrics.similarity import cosine, cosine_rows
from repro.reduction import ordered_sum
from repro.metrics.dimensions import (
    cohesiveness,
    personalization,
    raw_cohesiveness_sum,
    representativity,
)
from repro.profiles.generator import GroupGenerator
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex

#: Far below ``cosine``'s norm range: the squares go subnormal.
TINY = 2.0 ** -530


@pytest.fixture(scope="module")
def city(app):
    """``(pois, index, tiny_index)``: the app's POIs plus live-added
    ones, an index that embedded them through ``extend_with`` (a
    private copy: the session's index stays pristine), and the same
    vectors scaled into ``cosine``'s rescale branch."""
    index = copy.deepcopy(app.item_index)
    pois = list(app.dataset)
    next_id = max(p.id for p in pois) + 1
    sources = [p for cat in CATEGORIES
               for p in app.dataset.by_category(cat)[:2]]
    added = [POI(id=next_id + offset, name=f"added-{offset}", cat=p.cat,
                 lat=p.lat + 0.003, lon=p.lon - 0.002, type=p.type,
                 tags=p.tags[::-1], cost=p.cost)
             for offset, p in enumerate(sources)]
    # A close-then-reopen re-embeds an existing id with other tags.
    reopened = app.dataset.by_category("rest")[3]
    added.append(POI(id=reopened.id, name=reopened.name, cat=reopened.cat,
                     lat=reopened.lat, lon=reopened.lon, type=reopened.type,
                     tags=("wine", "jazz", "terrace"), cost=reopened.cost))
    for seed, poi in enumerate(added):
        index.extend_with(poi, seed=seed)
    assert (index.vector(reopened).tobytes()
            != app.item_index.vector(reopened).tobytes())
    # Added POIs first: drawn indices lean small.
    pois = added + [p for p in pois if p.id != reopened.id]
    tiny = ItemVectorIndex(index.schema,
                           {p.id: index.vector(p) * TINY for p in pois}, {})
    return pois, index, tiny


@st.composite
def packages(draw, pois):
    """Lists of CIs (distinct POIs within a CI), sometimes sharing a
    POI between the first two."""
    k = draw(st.integers(1, 6))
    cis = []
    for _ in range(k):
        size = draw(st.integers(1, 8))
        picks = draw(st.lists(st.integers(0, len(pois) - 1), min_size=size,
                              max_size=size, unique=True))
        cis.append([pois[i] for i in picks])
    if k > 1 and draw(st.booleans()):
        shared = cis[0][0]
        if all(p.id != shared.id for p in cis[1]):
            cis[1].append(shared)
    return cis


def _profile(schema, seed: int, uniform: bool, scale: float,
             zero: int | None) -> GroupProfile:
    profile = GroupGenerator(schema, seed=seed).group(4, uniform).profile()
    vectors = {cat: profile.vector(cat) * scale for cat in CATEGORIES}
    if zero is not None:
        vectors[CATEGORIES[zero]] = np.zeros_like(vectors[CATEGORIES[zero]])
    return GroupProfile(schema, vectors)


def _same(got: float, expected: float) -> None:
    assert float.hex(got) == float.hex(expected)


class TestMetricsMatchOracle:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_distances(self, city, data):
        pois = city[0]
        cis = data.draw(packages(pois))
        package = package_from_pois(cis)
        centroids = package.centroids()
        _same(representativity(centroids),
              metrics_oracle.representativity(centroids))
        _same(raw_cohesiveness_sum(cis),
              metrics_oracle.raw_cohesiveness_sum(cis))
        _same(cohesiveness(cis, 123.25),
              123.25 - metrics_oracle.raw_cohesiveness_sum(cis))
        _same(package.representativity(),
              metrics_oracle.representativity(centroids))
        _same(package.raw_cohesiveness_sum(),
              metrics_oracle.raw_cohesiveness_sum(cis))
        for ci, pois_of_ci in zip(package, cis):
            _same(ci.internal_distance(),
                  metrics_oracle.raw_cohesiveness_sum([pois_of_ci]))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10 ** 6),
           uniform=st.booleans(), tiny_items=st.booleans(),
           profile_scale=st.sampled_from([1.0, TINY]),
           zero=st.one_of(st.none(), st.integers(0, 3)))
    def test_personalization(self, city, data, seed, uniform, tiny_items,
                             profile_scale, zero):
        pois, index, tiny = city
        index = tiny if tiny_items else index
        cis = data.draw(packages(pois))
        profile = _profile(index.schema, seed, uniform, profile_scale, zero)
        expected = metrics_oracle.personalization(cis, profile, index)
        _same(personalization(cis, profile, index), expected)
        _same(package_from_pois(cis).personalization(profile, index),
              expected)

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("tiny_items", [False, True])
    def test_every_poi_alone(self, city, uniform, tiny_items):
        """One-POI packages: the total is the single cosine term, so no
        rounding of a longer sum can hide a one-ulp difference."""
        pois, index, tiny = city
        index = tiny if tiny_items else index
        profile = _profile(index.schema, 11, uniform, 1.0, None)
        for poi in pois:
            _same(personalization([[poi]], profile, index),
                  metrics_oracle.personalization([[poi]], profile, index))

    def test_groups_larger_than_the_pair_cache(self, city):
        pois = city[0]
        cis = [pois[:40], pois[40:43], pois[43:90]]
        _same(raw_cohesiveness_sum(cis),
              metrics_oracle.raw_cohesiveness_sum(cis))
        centroids = np.array([[p.lat, p.lon] for p in pois[:45]])
        _same(representativity(centroids),
              metrics_oracle.representativity(centroids))

    def test_empty_inputs(self, city):
        _same(raw_cohesiveness_sum([]), 0.0)
        _same(representativity(np.empty((0, 2))), 0.0)
        _same(personalization([], _profile(city[1].schema, 1, True, 1.0,
                                           None), city[1]), 0.0)


# -- metrics read from the city bundle ----------------------------------------

@pytest.fixture(scope="module")
def bundles(city):
    """``(dataset, arrays, tiny_arrays)``: the city (live-added POIs
    included) as a dataset, and its bundle over each index."""
    pois, index, tiny = city
    dataset = POIDataset(pois, city="paris")
    return (dataset, CityArrays.build(dataset, index),
            CityArrays.build(dataset, tiny))


@st.composite
def row_packages(draw, dataset, arrays):
    """A package laid out as a KFC build lays it out: ``k`` CIs of
    distinct rows, slots in the query's category order, with a budget
    that is infinite, arbitrary, exactly the costliest CI's total, or
    one ulp under it."""
    counts = draw(st.tuples(*(st.integers(0, n) for n in (2, 2, 3, 4)))
                  .filter(any), label="counts")
    requested = [(cat, n) for cat, n in zip(CATEGORIES, counts) if n]
    k = draw(st.integers(1, 5), label="k")
    rows = np.array([
        np.concatenate([arrays.categories[cat].rows[draw(st.lists(
            st.integers(0, len(arrays.categories[cat]) - 1), min_size=n,
            max_size=n, unique=True))] for cat, n in requested])
        for _ in range(k)], dtype=np.int64)
    centroids = np.column_stack([arrays.lats[rows].mean(axis=1),
                                 arrays.lons[rows].mean(axis=1)])
    cis = composite_items(dataset, arrays, centroids, rows)
    edge = max(ci.total_cost() for ci in cis)
    budget = draw(st.one_of(st.just(math.inf), st.floats(0.0, 2 * edge),
                            st.just(edge), st.just(math.nextafter(edge, 0))),
                  label="budget")
    query = GroupQuery.of(**{cat.value: n for cat, n in requested},
                          budget=budget)
    return TravelPackage(cis, query=query, rows=rows)


def _check_bundle_metrics(package, arrays, profile, index) -> None:
    valid, within, pers = bundle_metrics(package, arrays, profile)
    cis = [ci.pois for ci in package]
    assert valid is package.is_valid()
    _same(within, package.raw_cohesiveness_sum())
    _same(within, metrics_oracle.raw_cohesiveness_sum(cis))
    _same(pers, package.personalization(profile, index))
    _same(pers, metrics_oracle.personalization(cis, profile, index))


class TestBundleMetricsMatchOracle:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10 ** 6),
           uniform=st.booleans(), tiny_items=st.booleans(),
           profile_scale=st.sampled_from([1.0, TINY]),
           zero=st.one_of(st.none(), st.integers(0, 3)))
    def test_row_packages(self, city, bundles, data, seed, uniform,
                          tiny_items, profile_scale, zero):
        _, index, tiny = city
        dataset, arrays, tiny_arrays = bundles
        if tiny_items:
            index, arrays = tiny, tiny_arrays
        package = data.draw(row_packages(dataset, arrays))
        profile = _profile(index.schema, seed, uniform, profile_scale, zero)
        _check_bundle_metrics(package, arrays, profile, index)

    def test_budget_equal_to_a_cost_is_valid(self, city, bundles):
        _, index, _ = city
        dataset, arrays, _ = bundles
        rows = np.array([[arrays.categories[cat].rows[0]
                          for cat in CATEGORIES]])
        cis = composite_items(dataset, arrays, [(48.85, 2.35)], rows)
        cost = cis[0].total_cost()
        profile = _profile(index.schema, 3, True, 1.0, None)
        for budget, valid in ((cost, True), (math.nextafter(cost, 0), False)):
            query = GroupQuery.of(acco=1, trans=1, rest=1, attr=1,
                                  budget=budget)
            package = TravelPackage(cis, query=query, rows=rows)
            assert bundle_metrics(package, arrays, profile)[0] is valid
            _check_bundle_metrics(package, arrays, profile, index)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 10 ** 6), attr=st.integers(1, 4),
           budget=st.one_of(st.just(math.inf), st.floats(18.0, 60.0)),
           k=st.integers(1, 6))
    def test_kfc_builds(self, app, seed, attr, budget, k):
        """Packages straight from ``KFCBuilder.build`` carry their rows,
        laid out for their query."""
        profile = _profile(app.schema, seed, seed % 2 == 0, 1.0, None)
        query = GroupQuery.of(acco=1, trans=1, rest=1, attr=attr,
                              budget=budget)
        try:
            package = app.kfc.build(profile, query, k=k, seed=seed % 7)
        except ValueError:  # an infeasible budget
            return
        assert package.rows.shape == (k, query.total_items())
        _check_bundle_metrics(package, app.kfc.arrays, profile,
                              app.item_index)

    def test_rows_not_laid_out_for_the_query_raise(self, city, bundles):
        _, index, _ = city
        dataset, arrays, _ = bundles
        rows = np.array([[arrays.categories[cat].rows[0]
                          for cat in reversed(CATEGORIES)]])
        cis = composite_items(dataset, arrays, [(48.85, 2.35)], rows)
        profile = _profile(index.schema, 3, True, 1.0, None)
        for query in (GroupQuery.of(acco=1, trans=1, rest=1, attr=1),
                      GroupQuery.of(acco=1, trans=1, rest=1, attr=2),
                      GroupQuery.of(acco=1, trans=1, rest=1)):
            package = TravelPackage(cis, query=query, rows=rows)
            with pytest.raises(ValueError, match="package rows"):
                bundle_metrics(package, arrays, profile)


class TestCosineRows:
    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(0, 6), d=st.integers(1, 9),
           scale=st.sampled_from([1.0, TINY, 0.0]),
           b_scale=st.sampled_from([1.0, TINY, 0.0]),
           seed=st.integers(0, 10 ** 6))
    def test_equals_cosine_per_row(self, m, d, scale, b_scale, seed):
        rng = np.random.default_rng(seed)
        rows = rng.random((m, d)) * scale
        if m > 1:
            rows[1] = 0.0
        b = rng.random(d) * b_scale
        got = cosine_rows(rows, b)
        assert got.shape == (m,)
        for row, term in zip(rows, got.tolist()):
            _same(term, cosine(row, b))
        _same(ordered_sum(got.tolist()),
              ordered_sum(cosine(row, b) for row in rows))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            cosine_rows(np.ones((2, 3)), np.ones(4))

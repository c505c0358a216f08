"""Property-based tests on the core KFC invariants.

Whatever the query, seed or consensus method, a built package must be
valid, its CIs anchored inside the city, and the budget respected --
the contract downstream users rely on.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.assembly import InfeasibleQueryError
from repro.core.query import GroupQuery
from repro.profiles.consensus import ConsensusMethod

# Draw raw counts first and only construct the (validating) GroupQuery
# once at least one POI is requested.
queries = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 3),
    st.integers(0, 4),
    st.one_of(st.just(math.inf), st.floats(18.0, 60.0)),
).filter(lambda t: t[0] + t[1] + t[2] + t[3] > 0).map(
    lambda t: GroupQuery.of(acco=t[0], trans=t[1], rest=t[2], attr=t[3],
                            budget=t[4])
)


class TestKFCInvariants:
    @given(query=queries,
           method=st.sampled_from(list(ConsensusMethod)),
           k=st.integers(1, 6))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_built_packages_always_valid(self, app, uniform_group,
                                         query, method, k):
        profile = uniform_group.profile(method)
        try:
            package = app.kfc.build(profile, query, k=k)
        except InfeasibleQueryError:
            # Legitimate for tight budgets; nothing more to check.
            return
        assert package.k == k
        assert package.is_valid(query)
        for ci in package:
            assert len(ci) == query.total_items()
            assert ci.total_cost() <= query.budget
            # No duplicate POIs inside one CI (a CI is a set).
            assert len(ci.poi_ids) == len(ci.pois)

    @given(query=queries)
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_centroids_anchor_inside_city(self, app, uniform_group, query):
        profile = uniform_group.profile()
        try:
            package = app.kfc.build(profile, query)
        except InfeasibleQueryError:
            return
        coords = app.dataset.coordinates()
        lat_lo, lon_lo = coords.min(axis=0)
        lat_hi, lon_hi = coords.max(axis=0)
        margin = 0.02
        for ci in package:
            assert lat_lo - margin <= ci.centroid[0] <= lat_hi + margin
            assert lon_lo - margin <= ci.centroid[1] <= lon_hi + margin

    @given(seed=st.integers(0, 5))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_seed_same_package(self, app, uniform_group,
                                    default_query, seed):
        profile = uniform_group.profile()
        a = app.kfc.build(profile, default_query, seed=seed)
        b = app.kfc.build(profile, default_query, seed=seed)
        assert [ci.poi_ids for ci in a] == [ci.poi_ids for ci in b]


class TestRecenterEmptyCI:
    """Regression: _recenter used to crash on an empty Composite Item.

    An empty CI (explicit centroid, no POIs) once reached the
    projection as a 1-D ``np.array([])`` and raised IndexError.  Rounds
    now pass a ``(k, slots)`` row matrix, where CIs without members are
    a matrix with no slots.
    """

    def test_recenter_survives_empty_ci(self, app, uniform_group,
                                        default_query):
        profile = uniform_group.profile()
        package = app.kfc.build(profile, default_query)
        centroids = package.centroids()
        rows = np.empty((len(centroids), 0), dtype=np.int64)

        moved = app.kfc._recenter(centroids, rows, app.kfc.weights)

        assert moved.shape == centroids.shape
        # Each centroid still moves with its fuzzy members (alpha
        # pull); no member sum, and no NaN from an empty one.
        assert np.isfinite(moved).all()
        assert not np.array_equal(moved, centroids)


class TestCallFuzzifier:
    """Regression: a per-call ``weights.fuzzifier`` reached recentering
    and the cache key but not FCM seeding, which always used the
    builder's own fuzzifier."""

    def test_override_builds_as_a_builder_with_that_fuzzifier(
            self, app, uniform_group, default_query):
        from repro.core.kfc import KFCBuilder
        from repro.core.objective import ObjectiveWeights

        profile = uniform_group.profile()
        weights = ObjectiveWeights(fuzzifier=3.0)
        assert weights.fuzzifier != app.kfc.weights.fuzzifier
        own = KFCBuilder(app.dataset, app.item_index, weights=weights,
                         k=app.kfc.k, seed=app.kfc.seed,
                         candidate_pool=app.kfc.candidate_pool,
                         refine_iterations=app.kfc.refine_iterations)
        default_cache = dict(app.kfc._centroid_cache)

        override = app.kfc.build(profile, default_query, weights=weights)

        assert override.to_dict() == own.build(profile,
                                               default_query).to_dict()
        # The seeds really differ by fuzzifier, and the override left
        # the builder's own seeds alone.
        assert not np.array_equal(own.place_centroids(),
                                  app.kfc.place_centroids())
        assert app.kfc._centroid_cache.keys() >= default_cache.keys()
        for key, fitted in default_cache.items():
            assert app.kfc._centroid_cache[key] is fitted

    def test_fuzzifier_maps_are_bounded(self, app, uniform_group,
                                        default_query):
        """Fuzzifiers are client-chosen, so a geometry keeps FCM fits
        for the few most recently used ones."""
        from repro.core import kfc
        from repro.core.arrays import CityArrays
        from repro.core.objective import ObjectiveWeights

        arrays = CityArrays.build(app.dataset, app.item_index)  # own xy
        builder = kfc.KFCBuilder(app.dataset, app.item_index,
                                 arrays=arrays)
        profile = uniform_group.profile()
        fuzzifiers = [2.5 + i / 4 for i in range(kfc.FUZZIFIER_CACHE_SIZE
                                                 + 3)]
        for fuzzifier in fuzzifiers:
            builder.build(profile, default_query,
                          weights=ObjectiveWeights(fuzzifier=fuzzifier))
        per_xy = kfc._SEEDS[id(arrays.xy)]
        assert list(per_xy) == fuzzifiers[-kfc.FUZZIFIER_CACHE_SIZE:]
        assert all(len(fits) == 1 for fits in per_xy.values())


class TestQueryDerivedOnce:
    """A query's categories, counts and feasibility are derived once per
    build, not once per assembly round."""

    def _parses(self, monkeypatch, builder, profile, query) -> int:
        from repro.data.poi import Category

        calls = []
        parse = Category.parse.__func__

        def counting(cls, value):
            calls.append(value)
            return parse(cls, value)

        monkeypatch.setattr(Category, "parse", classmethod(counting))
        builder.build(profile, query)
        monkeypatch.undo()
        return len(calls)

    @pytest.mark.parametrize("budget", [math.inf, 30.0])
    def test_a_build_parses_categories_independently_of_rounds(
            self, app, uniform_group, monkeypatch, budget):
        from repro.core.kfc import KFCBuilder
        from repro.data.poi import CATEGORIES

        query = GroupQuery.of(acco=1, trans=1, rest=1, attr=3, budget=budget)
        profile = uniform_group.profile()
        counts = [self._parses(monkeypatch, KFCBuilder(
            app.dataset, app.item_index, refine_iterations=rounds,
            arrays=app.kfc.arrays), profile, query) for rounds in (0, 2, 6)]
        assert counts[0] == counts[1] == counts[2]
        assert counts[0] <= 2 * len(CATEGORIES)

    def test_the_kernel_still_checks_standalone_calls(self, app,
                                                      uniform_group):
        from repro.core.assembly import assemble_composite_items

        query = GroupQuery.of(acco=len(app.dataset.by_category("acco")) + 1)
        with pytest.raises(InfeasibleQueryError, match="only"):
            assemble_composite_items(app.dataset, [[48.85, 2.35]], query,
                                     uniform_group.profile(), app.item_index)

    def test_derived_fields_follow_replace_and_the_wire(self):
        from dataclasses import replace

        from repro.data.poi import Category

        query = GroupQuery.of(trans=2, attr=1)
        assert query.requested_categories() == (Category.TRANSPORTATION,
                                                Category.ATTRACTION)
        assert query.requested_counts() == (2, 1)
        wider = replace(query, counts={"acco": 1, "attr": 4})
        assert wider.requested_counts() == (1, 4)
        wire = GroupQuery.from_dict(query.to_dict())
        assert wire == query
        assert wire.requested_counts() == (2, 1)

"""Tests for valid CI assembly and the KFC builder."""

import numpy as np
import pytest

from repro.core.assembly import InfeasibleQueryError, assemble_composite_items
from repro.core.kfc import KFCBuilder
from repro.core.objective import ObjectiveWeights
from repro.core.query import GroupQuery
from repro.data.poi import Category

from conftest import assemble_cis


@pytest.fixture()
def profile(uniform_group):
    return uniform_group.profile()


@pytest.fixture()
def center(small_city):
    lat, lon = small_city.coordinates().mean(axis=0)
    return (float(lat), float(lon))


class TestAssembly:
    def test_produces_valid_ci(self, app, profile, center, default_query):
        ci = assemble_cis(app.dataset, [center], default_query,
                          profile, app.item_index)[0]
        assert ci.is_valid(default_query)
        assert ci.centroid == center

    def test_respects_budget(self, app, profile, center):
        query = GroupQuery.of(acco=1, trans=1, rest=1, attr=3, budget=15.0)
        ci = assemble_cis(app.dataset, [center], query, profile,
                          app.item_index)[0]
        assert ci.is_valid(query)
        assert ci.total_cost() <= 15.0

    def test_infeasible_budget_raises(self, app, profile, center):
        query = GroupQuery.of(acco=1, trans=1, rest=1, attr=3, budget=0.01)
        with pytest.raises(InfeasibleQueryError, match="budget"):
            assemble_composite_items(app.dataset, [center], query, profile,
                                     app.item_index)

    def test_missing_category_volume_raises(self, app, profile, center):
        huge = GroupQuery.of(acco=10_000)
        with pytest.raises(InfeasibleQueryError, match="only"):
            assemble_composite_items(app.dataset, [center], huge, profile,
                                     app.item_index)

    def test_prefers_nearby_items(self, app, profile, center, default_query):
        """With a large beta the CI should hug the centroid."""
        from repro.geo.distance import equirectangular_km

        near = assemble_cis(app.dataset, [center], default_query,
                            profile, app.item_index,
                            beta=50.0, gamma=0.0)[0]
        mean_dist = np.mean([
            float(equirectangular_km(p.lat, p.lon, center[0], center[1]))
            for p in near.pois
        ])
        assert mean_dist < app.dataset.max_distance_km / 3

    def test_gamma_pulls_toward_profile(self, app, center, default_query,
                                        schema):
        """A profile that loves exactly one accommodation type should get
        that type when gamma dominates."""
        from repro.profiles.group import GroupProfile

        want = 2  # arbitrary type slot
        vectors = {cat: np.full(schema.size(cat), 0.2) for cat in
                   (Category.ACCOMMODATION, Category.TRANSPORTATION,
                    Category.RESTAURANT, Category.ATTRACTION)}
        acco_vec = np.zeros(schema.size("acco"))
        acco_vec[want] = 1.0
        vectors[Category.ACCOMMODATION] = acco_vec
        profile = GroupProfile(schema, vectors)
        wanted_type = schema.labels("acco")[want]
        available = {p.type for p in app.dataset.by_category("acco")}
        if wanted_type not in available:
            pytest.skip("small city lacks the wanted type")
        ci = assemble_cis(app.dataset, [center], default_query,
                          profile, app.item_index,
                          beta=0.0, gamma=50.0)[0]
        acco = [p for p in ci.pois if p.cat == Category.ACCOMMODATION][0]
        assert acco.type == wanted_type

    def test_deterministic(self, app, profile, center, default_query):
        a = assemble_cis(app.dataset, [center], default_query,
                         profile, app.item_index)[0]
        b = assemble_cis(app.dataset, [center], default_query,
                         profile, app.item_index)[0]
        assert a.poi_ids == b.poi_ids


class TestKFCBuilder:
    def test_validation(self, app):
        with pytest.raises(ValueError):
            KFCBuilder(app.dataset, app.item_index, k=0)
        with pytest.raises(ValueError):
            KFCBuilder(app.dataset, app.item_index, refine_iterations=-1)

    def test_build_returns_k_valid_cis(self, app, profile, default_query):
        tp = app.kfc.build(profile, default_query)
        assert tp.k == 5
        assert tp.is_valid(default_query)

    def test_k_override(self, app, profile, default_query):
        tp = app.kfc.build(profile, default_query, k=3)
        assert tp.k == 3

    def test_centroid_cache_reused(self, app):
        first = app.kfc.place_centroids()
        second = app.kfc.place_centroids()
        assert np.allclose(first, second)
        # Returned arrays are copies: mutating one must not poison the cache.
        first[:] = 0.0
        assert not np.allclose(app.kfc.place_centroids(), 0.0)

    def test_centroids_inside_city(self, app, small_city):
        cents = app.kfc.place_centroids()
        coords = small_city.coordinates()
        assert (cents[:, 0] >= coords[:, 0].min() - 0.01).all()
        assert (cents[:, 0] <= coords[:, 0].max() + 0.01).all()

    def test_weight_override_changes_result(self, app, profile, default_query):
        neutral = app.kfc.build(profile, default_query,
                                weights=ObjectiveWeights(gamma=0.0))
        personalized = app.kfc.build(profile, default_query,
                                     weights=ObjectiveWeights(gamma=5.0))
        ids_a = {ci.poi_ids for ci in neutral}
        ids_b = {ci.poi_ids for ci in personalized}
        assert ids_a != ids_b

    def test_personalization_improves_profile_match(self, app, profile,
                                                    default_query):
        neutral = app.kfc.build(profile, default_query,
                                weights=ObjectiveWeights(gamma=0.0))
        personalized = app.kfc.build(profile, default_query,
                                     weights=ObjectiveWeights(gamma=2.0))
        assert personalized.personalization(profile, app.item_index) >= \
            neutral.personalization(profile, app.item_index)

    def test_projection_roundtrip(self, app):
        kfc = app.kfc
        coords = app.dataset.coordinates()[:10]
        xy = kfc._project_points(coords)
        back = kfc._unproject(xy)
        assert np.allclose(back, coords, atol=1e-9)

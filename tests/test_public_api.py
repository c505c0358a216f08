"""Tests for the package's public surface: the README quickstart must
keep working."""

import pytest

import repro
from repro import (
    CompositeItem,
    ConsensusMethod,
    DEFAULT_QUERY,
    Group,
    GroupGenerator,
    GroupQuery,
    GroupTravel,
    KFCBuilder,
    ObjectiveWeights,
    POIDataset,
    TravelPackage,
    UserProfile,
    generate_city,
)


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.27.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_readme_quickstart(self):
        city = generate_city("paris", seed=7, scale=0.2)
        app = GroupTravel(city, seed=7, lda_iterations=10)
        group = GroupGenerator(app.schema, seed=13).uniform_group(5)
        package = app.build_package(
            group, DEFAULT_QUERY,
            method=ConsensusMethod.PAIRWISE_DISAGREEMENT,
        )
        assert isinstance(package, TravelPackage)
        assert package.is_valid()
        for ci in package:
            assert isinstance(ci, CompositeItem)
            assert all(poi.name for poi in ci)

    def test_types_are_the_canonical_ones(self):
        from repro.core.query import GroupQuery as Canonical

        assert GroupQuery is Canonical
        assert isinstance(DEFAULT_QUERY, GroupQuery)

    def test_kfc_and_weights_exported(self, app):
        assert isinstance(app.kfc, KFCBuilder)
        assert isinstance(app.kfc.weights, ObjectiveWeights)

    def test_dataset_type_exported(self, small_city):
        assert isinstance(small_city, POIDataset)

    def test_geo_exports(self):
        import repro.geo

        # Nearest-POI queries read the city bundle; no grid index ships.
        assert repro.geo.__all__ == [
            "EARTH_RADIUS_KM", "Rectangle", "equirectangular_km",
            "haversine_km", "max_pairwise_distance",
        ]
        for name in repro.geo.__all__:
            assert getattr(repro.geo, name) is not None

    def test_profile_types_exported(self, uniform_group):
        assert isinstance(uniform_group, Group)
        assert isinstance(uniform_group.members[0], UserProfile)

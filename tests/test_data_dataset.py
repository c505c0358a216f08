"""Tests for the POIDataset container."""

import pytest

from repro.data.dataset import POIDataset
from repro.data.poi import Category

from geo_oracle import nearest_pois


class TestContainer:
    def test_len_iter_contains(self, small_city):
        assert len(small_city) == len(list(small_city))
        first = next(iter(small_city))
        assert first.id in small_city

    def test_getitem_and_get(self, small_city):
        first = next(iter(small_city))
        assert small_city[first.id] == first
        assert small_city.get(first.id) == first
        assert small_city.get(-1) is None

    def test_getitem_missing_raises(self, small_city):
        with pytest.raises(KeyError, match="no POI with id"):
            small_city[999_999]

    def test_duplicate_ids_rejected(self, poi_factory):
        poi = poi_factory(poi_id=1)
        with pytest.raises(ValueError, match="duplicate"):
            POIDataset([poi, poi])

    def test_category_views_partition_dataset(self, small_city):
        counts = small_city.category_counts()
        assert sum(counts.values()) == len(small_city)
        for cat, pois in ((c, small_city.by_category(c)) for c in Category):
            assert all(p.cat == cat for p in pois)

    def test_repr_mentions_city(self, small_city):
        assert "paris" in repr(small_city)


class TestGeometry:
    def test_coordinates_shape(self, small_city):
        coords = small_city.coordinates()
        assert coords.shape == (len(small_city), 2)

    def test_coordinates_of_subset(self, small_city):
        rest = small_city.by_category("rest")[:3]
        assert small_city.coordinates(rest).shape == (3, 2)

    def test_coordinates_empty(self, poi_factory):
        ds = POIDataset([poi_factory()])
        assert ds.coordinates([]).shape == (0, 2)

    def test_max_distance_cached_and_positive(self, small_city):
        first = small_city.max_distance_km
        assert first > 0
        assert small_city.max_distance_km == first

    # Nearest-POI queries run in the customization session, over the
    # city's bundle columns; the oracle is a scalar brute force.

    def test_nearest_respects_category(self, session, small_city):
        lat, lon = session.package[0].centroid
        found = session.suggest_additions(0, k=3, category="rest")
        assert len(found) == 3
        assert all(p.cat == Category.RESTAURANT for p in found)
        assert found == nearest_pois(small_city, lat, lon, 3, category="rest",
                                     exclude=session.package[0].poi_ids)

    def test_nearest_excludes_ids(self, session, small_city):
        ci = session.package[0]
        target = ci.pois[0]
        top = nearest_pois(small_city, target.lat, target.lon, 1,
                           category=target.cat)[0]
        assert top.id == target.id  # distance 0 to itself
        found = session.recommend_replacement(0, target.id)
        assert found.id not in ci.poi_ids
        assert found == nearest_pois(small_city, target.lat, target.lon, 1,
                                     category=target.cat,
                                     exclude=ci.poi_ids)[0]

    def test_nearest_by_type(self, session, small_city):
        some = small_city.by_category("acco")[0]
        found = session.suggest_additions(0, k=1, poi_type=some.type)
        assert found[0].type == some.type


class TestPersistence:
    def test_json_roundtrip(self, small_city):
        clone = POIDataset.from_json(small_city.to_json())
        assert len(clone) == len(small_city)
        assert clone.city == small_city.city
        some_id = small_city.ids[5]
        assert clone[some_id] == small_city[some_id]

    def test_save_and_load(self, small_city, tmp_path):
        path = tmp_path / "city.json"
        small_city.save(path)
        assert POIDataset.load(path).category_counts() == \
            small_city.category_counts()

    def test_subset(self, small_city):
        ids = small_city.ids[:10]
        sub = small_city.subset(ids)
        assert len(sub) == 10
        assert set(sub.ids) == set(ids)

"""Tests for the POI record and category enum."""

import pytest

from repro.data.poi import CATEGORIES, Category, POI


class TestCategory:
    def test_parse_string(self):
        assert Category.parse("acco") is Category.ACCOMMODATION
        assert Category.parse("attr") is Category.ATTRACTION

    def test_parse_passthrough(self):
        assert Category.parse(Category.RESTAURANT) is Category.RESTAURANT

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown POI category"):
            Category.parse("hotel")

    def test_str_is_short_code(self):
        assert f"{Category.TRANSPORTATION}" == "trans"

    def test_canonical_order_has_all_four(self):
        assert len(CATEGORIES) == 4
        assert set(CATEGORIES) == set(Category)


class TestPOI:
    def test_construction_parses_category(self, poi_factory):
        poi = POI(id=1, name="x", cat="rest", lat=48.0, lon=2.0)
        assert poi.cat is Category.RESTAURANT

    def test_tags_coerced_to_tuple(self):
        poi = POI(id=1, name="x", cat="rest", lat=48.0, lon=2.0,
                  tags=["a", "b"])
        assert poi.tags == ("a", "b")

    def test_coordinates_property(self):
        poi = POI(id=1, name="x", cat="rest", lat=48.5, lon=2.5)
        assert poi.coordinates == (48.5, 2.5)

    @pytest.mark.parametrize("lat,lon", [(91.0, 0.0), (-91.0, 0.0),
                                         (0.0, 181.0), (0.0, -181.0)])
    def test_rejects_bad_coordinates(self, lat, lon):
        with pytest.raises(ValueError, match="out of range"):
            POI(id=1, name="x", cat="rest", lat=lat, lon=lon)

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError, match="non-negative"):
            POI(id=1, name="x", cat="rest", lat=0.0, lon=0.0, cost=-1.0)

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_rejects_non_finite_cost(self, cost):
        with pytest.raises(ValueError, match="finite"):
            POI(id=1, name="x", cat="rest", lat=0.0, lon=0.0, cost=cost)

    def test_dict_roundtrip(self, poi_factory):
        poi = poi_factory(poi_id=9, cat="attr", cost=3.5,
                          tags=("museum", "art"))
        assert POI.from_dict(poi.to_dict()) == poi

    def test_frozen(self, poi_factory):
        poi = poi_factory()
        with pytest.raises(AttributeError):
            poi.cost = 5.0

"""Tests for the synthetic city generator and city templates."""

import numpy as np
import pytest

from repro.data.cities import CITY_TEMPLATES, city_names, get_template
from repro.data.poi import CATEGORIES, Category
from repro.data.synthetic import generate_city

from geo_oracle import brute_force_nearest


class TestCityTemplates:
    def test_eight_tourpedia_cities(self):
        assert len(city_names()) == 8
        assert {"paris", "barcelona", "amsterdam", "berlin",
                "dubai", "london", "rome", "tuscany"} == set(city_names())

    def test_get_template_case_insensitive(self):
        assert get_template("Paris").name == "paris"

    def test_get_template_unknown(self):
        with pytest.raises(KeyError, match="unknown city"):
            get_template("atlantis")

    def test_templates_have_sane_boxes(self):
        for template in CITY_TEMPLATES.values():
            assert template.south < template.north
            assert template.west < template.east
            assert template.neighbourhoods
            lat, lon = template.center
            assert template.south <= lat <= template.north

    def test_neighbourhood_seeds_inside_box(self):
        for template in CITY_TEMPLATES.values():
            for _, lat, lon, spread in template.neighbourhoods:
                assert template.south - 0.02 <= lat <= template.north + 0.02
                assert template.west - 0.02 <= lon <= template.east + 0.02
                assert spread > 0


class TestGenerateCity:
    def test_deterministic(self):
        a = generate_city("paris", seed=3, scale=0.2)
        b = generate_city("paris", seed=3, scale=0.2)
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        a = generate_city("paris", seed=3, scale=0.2)
        b = generate_city("paris", seed=4, scale=0.2)
        assert a.to_json() != b.to_json()

    def test_counts_follow_template_and_scale(self):
        template = get_template("paris")
        city = generate_city("paris", seed=1, scale=0.5)
        counts = city.category_counts()
        for cat in CATEGORIES:
            assert counts[cat] == max(int(round(template.counts[cat] * 0.5)), 1)

    def test_all_pois_inside_bounding_box(self):
        template = get_template("barcelona")
        city = generate_city("barcelona", seed=5, scale=0.3)
        for poi in city:
            assert template.south <= poi.lat <= template.north
            assert template.west <= poi.lon <= template.east

    def test_pois_fully_augmented(self):
        city = generate_city("rome", seed=2, scale=0.2)
        for poi in city:
            assert poi.type
            assert poi.tags
            assert poi.cost >= 0

    def test_pois_are_spatially_clustered(self):
        """Neighbourhood structure: mean nearest-neighbour distance is
        far below what a uniform scatter would give."""
        city = generate_city("paris", seed=6, scale=1.0)
        coords = city.coordinates()
        # Nearest-neighbour distances via the brute-force oracle.
        points = [(p.id, p.lat, p.lon) for p in city]
        dists = []
        for poi in list(city)[:150]:
            nearest = brute_force_nearest(points, poi.lat, poi.lon, k=2)
            other = city[[i for i in nearest if i != poi.id][0]]
            dists.append(abs(other.lat - poi.lat) + abs(other.lon - poi.lon))
        spread = coords.std(axis=0).sum()
        assert np.mean(dists) < spread / 4

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="positive"):
            generate_city("paris", scale=0.0)

    def test_unique_ids_and_names(self):
        city = generate_city("london", seed=9, scale=0.3)
        names = [p.name for p in city]
        assert len(set(names)) == len(names)

"""Tests for similarity, the three optimization dimensions, uniformity
and min-max normalization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geo.distance import equirectangular_km
from repro.metrics.dimensions import (
    cohesiveness,
    personalization,
    raw_cohesiveness_sum,
    representativity,
)
from repro.metrics.normalize import min_max_normalize
from repro.metrics.similarity import cosine, cosine_matrix

unit_vectors = arrays(dtype=float, shape=st.integers(2, 10),
                      elements=st.floats(0.0, 1.0))


class TestCosine:
    def test_identical(self):
        assert cosine(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_convention(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            cosine(np.zeros(2), np.zeros(3))

    @given(a=unit_vectors)
    @example(a=np.array([1.509e-161, 1.509e-161]))  # squares go subnormal
    @settings(max_examples=80, deadline=None)
    def test_self_similarity_and_bounds(self, a):
        if np.linalg.norm(a) > 0:
            assert cosine(a, a) == pytest.approx(1.0)
        scaled = cosine(a, 2.0 * a + 1e-12)
        assert -1.0 - 1e-9 <= scaled <= 1.0 + 1e-9

    def test_matrix_agrees_with_pairwise(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(size=(5, 4))
        mat = cosine_matrix(rows)
        for i in range(5):
            for j in range(5):
                assert mat[i, j] == pytest.approx(cosine(rows[i], rows[j]))

    @pytest.mark.parametrize("scale", [1.509e-161, 1e-300, 1e200])
    def test_out_of_range_norms_stay_bounded(self, scale):
        # np.linalg.norm squares below ~1.5e-154 into subnormals (and
        # above ~1e154 into inf, which numpy warns about before the
        # guard can rescale); both cases rescale by a power of two.
        with np.errstate(over="ignore"):
            self._check_bounded(scale)

    @staticmethod
    def _check_bounded(scale):
        a = np.array([scale, scale])
        b = np.array([scale, 2.0 * scale])
        expected = 3.0 / np.sqrt(10.0)
        assert cosine(a, a) == pytest.approx(1.0)
        assert cosine(a, b) == pytest.approx(expected)
        assert cosine(a, 2.0 * a + 1e-12) <= 1.0 + 1e-9
        mat = cosine_matrix(np.array([a, b, [1.0, 2.0]]))
        assert mat[0, 1] == pytest.approx(expected)
        assert mat[1, 2] == pytest.approx(1.0)
        assert np.all(mat <= 1.0 + 1e-9)

    def test_matrix_zero_rows(self):
        rows = np.array([[0.0, 0.0], [1.0, 0.0]])
        mat = cosine_matrix(rows)
        assert mat[0, 0] == 0.0
        assert mat[0, 1] == 0.0


class TestDimensions:
    def test_representativity_two_centroids(self):
        centroids = np.array([[48.85, 2.35], [48.86, 2.36]])
        expected = float(equirectangular_km(48.85, 2.35, 48.86, 2.36))
        assert representativity(centroids) == pytest.approx(expected)

    def test_representativity_single_centroid_zero(self):
        assert representativity(np.array([[48.85, 2.35]])) == 0.0

    def test_representativity_shape_check(self):
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            representativity(np.zeros((2, 3)))

    def test_raw_cohesiveness_matches_manual(self, poi_factory):
        a = poi_factory(poi_id=1, lat=48.85, lon=2.35)
        b = poi_factory(poi_id=2, lat=48.86, lon=2.36)
        c = poi_factory(poi_id=3, lat=48.87, lon=2.37)
        total = raw_cohesiveness_sum([[a, b, c]])
        manual = sum(float(equirectangular_km(x.lat, x.lon, y.lat, y.lon))
                     for x, y in [(a, b), (a, c), (b, c)])
        assert total == pytest.approx(manual)

    def test_cohesiveness_is_s_minus_raw(self, poi_factory):
        a = poi_factory(poi_id=1, lat=48.85, lon=2.35)
        b = poi_factory(poi_id=2, lat=48.86, lon=2.36)
        raw = raw_cohesiveness_sum([[a, b]])
        assert cohesiveness([[a, b]], s_constant=100.0) == pytest.approx(100.0 - raw)

    def test_personalization_sums_cosines(self, app, small_city, uniform_group):
        profile = uniform_group.profile()
        pois = list(small_city.by_category("rest")[:3])
        total = personalization([pois], profile, app.item_index)
        manual = sum(cosine(app.item_index.vector(p), profile.vector(p.cat))
                     for p in pois)
        assert total == pytest.approx(manual)

    def test_compact_ci_more_cohesive_than_spread(self, poi_factory):
        tight = [poi_factory(poi_id=i, lat=48.85 + i * 1e-4, lon=2.35)
                 for i in range(3)]
        spread = [poi_factory(poi_id=i, lat=48.80 + i * 0.05, lon=2.35)
                  for i in range(3)]
        assert cohesiveness([tight], 100.0) > cohesiveness([spread], 100.0)


class TestNormalize:
    def test_basic(self):
        assert list(min_max_normalize([1.0, 2.0, 3.0])) == [0.0, 0.5, 1.0]

    def test_constant_sequence(self):
        assert np.allclose(min_max_normalize([2.0, 2.0]), 0.0)

    def test_empty(self):
        assert min_max_normalize([]).size == 0

    @given(values=st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_output_in_unit_interval(self, values):
        out = min_max_normalize(values)
        assert (out >= 0.0).all()
        assert (out <= 1.0).all()

    @given(values=st.lists(st.floats(-100, 100), min_size=2, max_size=30,
                           unique=True))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, values):
        """Normalization never reorders values (ties may appear from
        rounding, so assert monotonicity along the sorted input)."""
        out = min_max_normalize(values)
        order = np.argsort(values)
        sorted_out = out[order]
        assert (np.diff(sorted_out) >= -1e-12).all()

"""Unit and property tests for the distance substrate.

The full-matrix helpers live in ``tests/geo_oracle.py``: ``src/`` only
needs the largest pairwise distance, which it finds without building
the n x n matrix, and must find bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geo_oracle import (
    equirectangular_matrix,
    haversine_matrix,
    normalized_distance_matrix,
)
from repro.geo.distance import (
    equirectangular_km,
    haversine_km,
    max_pairwise_distance,
)

# Paris-ish coordinate strategies: the regime the paper's approximation
# claim covers.
_city_lat = st.floats(48.7, 49.0)
_city_lon = st.floats(2.1, 2.6)


def random_city(seed: int, n: int, duplicates: float) -> np.ndarray:
    """``n`` Paris-ish points, a ``duplicates`` share of them copies of
    earlier ones (coincident POIs tie the maximum)."""
    rng = np.random.default_rng(seed)
    coords = np.column_stack([rng.uniform(48.7, 49.0, n),
                              rng.uniform(2.1, 2.6, n)])
    copies = rng.random(n) < duplicates
    copies[0] = False
    coords[copies] = coords[rng.integers(0, np.flatnonzero(copies))]
    return coords


class TestHaversine:
    def test_zero_for_identical_points(self):
        assert float(haversine_km(48.85, 2.35, 48.85, 2.35)) == 0.0

    def test_known_distance_paris_to_barcelona(self):
        # Notre-Dame to Sagrada Familia is about 830 km.
        d = float(haversine_km(48.8530, 2.3499, 41.4036, 2.1744))
        assert 820 < d < 840

    def test_symmetry(self):
        a = float(haversine_km(48.85, 2.35, 48.90, 2.40))
        b = float(haversine_km(48.90, 2.40, 48.85, 2.35))
        assert a == pytest.approx(b)

    def test_broadcasts_over_arrays(self):
        lats = np.array([48.85, 48.86])
        out = haversine_km(lats, 2.35, 48.85, 2.35)
        assert out.shape == (2,)
        assert out[0] == 0.0
        assert out[1] > 0.0

    def test_one_degree_latitude_is_111km(self):
        d = float(haversine_km(48.0, 2.0, 49.0, 2.0))
        assert d == pytest.approx(111.2, abs=0.5)


class TestEquirectangular:
    def test_zero_for_identical_points(self):
        assert float(equirectangular_km(48.85, 2.35, 48.85, 2.35)) == 0.0

    @given(lat1=_city_lat, lon1=_city_lon, lat2=_city_lat, lon2=_city_lon)
    @settings(max_examples=200, deadline=None)
    def test_matches_haversine_within_city(self, lat1, lon1, lat2, lon2):
        truth = float(haversine_km(lat1, lon1, lat2, lon2))
        approx = float(equirectangular_km(lat1, lon1, lat2, lon2))
        if truth > 1e-6:
            assert abs(approx - truth) / truth < 0.001  # the 0.1% claim
        else:
            assert approx == pytest.approx(truth, abs=1e-6)

    @given(lat1=_city_lat, lon1=_city_lon, lat2=_city_lat, lon2=_city_lon)
    @settings(max_examples=100, deadline=None)
    def test_non_negative_and_symmetric(self, lat1, lon1, lat2, lon2):
        d1 = float(equirectangular_km(lat1, lon1, lat2, lon2))
        d2 = float(equirectangular_km(lat2, lon2, lat1, lon1))
        assert d1 >= 0.0
        assert d1 == pytest.approx(d2, rel=1e-9)


class TestMatrices:
    def test_haversine_matrix_diagonal_zero(self):
        coords = [(48.85, 2.35), (48.86, 2.36), (48.87, 2.33)]
        mat = haversine_matrix(coords)
        assert mat.shape == (3, 3)
        assert np.allclose(np.diag(mat), 0.0)
        assert np.allclose(mat, mat.T)

    def test_equirectangular_matrix_agrees_pairwise(self):
        coords = [(48.85, 2.35), (48.86, 2.36)]
        mat = equirectangular_matrix(coords)
        direct = float(equirectangular_km(48.85, 2.35, 48.86, 2.36))
        assert mat[0, 1] == pytest.approx(direct)

    def test_rejects_malformed_coords(self):
        with pytest.raises(ValueError, match="lat, lon"):
            max_pairwise_distance([[1.0, 2.0, 3.0]])

    def test_max_pairwise_distance_single_point(self):
        assert max_pairwise_distance([(48.85, 2.35)]) == 0.0

    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.one_of(st.integers(2, 12), st.integers(13, 600)),
           duplicates=st.sampled_from([0.0, 0.3, 0.9]))
    @settings(max_examples=60, deadline=None)
    def test_max_pairwise_distance_matches_matrix_max(self, seed, n,
                                                      duplicates):
        """The block scan returns the full matrix's maximum exactly,
        across sizes that span many blocks and sets full of ties."""
        coords = random_city(seed, n, duplicates)
        assert max_pairwise_distance(coords) == equirectangular_matrix(
            coords).max()

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
           steps=st.lists(st.tuples(st.booleans(), st.floats(0, 0.999)),
                          min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_incremental_update_matches_a_fresh_scan(self, seed, n, steps):
        """Adding or removing one point, the O(n) update from the
        previous maximum equals a scan of the new set, bit for bit --
        including the removal of a farthest-pair endpoint."""
        pool = random_city(seed, n + len(steps), duplicates=0.3)
        coords, spare = pool[:n], list(pool[n:])
        largest = max_pairwise_distance(coords)
        for add, pick in steps:
            if add or len(coords) == 1:
                point = spare.pop()
                coords = np.vstack([coords, point])
                largest = max_pairwise_distance(
                    coords, previous=largest, added=tuple(point))
            else:
                victim = int(pick * len(coords))
                point = coords[victim]
                coords = np.delete(coords, victim, axis=0)
                largest = max_pairwise_distance(
                    coords, previous=largest, removed=tuple(point))
            assert largest == max_pairwise_distance(coords)

    def test_max_pairwise_distance_memory_is_linear(self):
        """6,000 points: one n x n float64 temporary would be 288 MB;
        the scan peaks at a small multiple of the n-row column bytes."""
        n = 6000
        coords = random_city(0, n, duplicates=0.0)
        tracemalloc.start()
        try:
            max_pairwise_distance(coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * n * coords.itemsize

    def test_normalized_matrix_in_unit_interval(self):
        coords = [(48.85, 2.35), (48.90, 2.40), (48.80, 2.30)]
        norm = normalized_distance_matrix(coords)
        assert norm.min() >= 0.0
        assert norm.max() == pytest.approx(1.0)

    def test_normalized_matrix_coincident_points(self):
        norm = normalized_distance_matrix([(48.85, 2.35)] * 3)
        assert np.allclose(norm, 0.0)

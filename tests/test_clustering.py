"""Tests for fuzzy c-means, including hypothesis invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.fuzzy_cmeans import FuzzyCMeans


def _blobs(seed: int, n_per_blob: int = 30):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    points = np.vstack([
        center + rng.normal(0, 0.5, size=(n_per_blob, 2))
        for center in centers
    ])
    return points, centers


class TestValidation:
    def test_bad_cluster_count(self):
        with pytest.raises(ValueError):
            FuzzyCMeans(0)

    def test_fuzzifier_must_exceed_one(self):
        with pytest.raises(ValueError, match="f <= 1"):
            FuzzyCMeans(2, m=1.0)

    @pytest.mark.parametrize("m", [float("nan"), float("inf")])
    def test_fuzzifier_must_be_finite(self, m):
        with pytest.raises(ValueError, match="finite"):
            FuzzyCMeans(2, m=m)

    def test_requires_enough_points(self):
        with pytest.raises(ValueError, match="at least"):
            FuzzyCMeans(5).fit(np.zeros((3, 2)))

    def test_requires_2d_input(self):
        with pytest.raises(ValueError, match=r"\(n, d\)"):
            FuzzyCMeans(2).fit(np.zeros(10))


class TestClustering:
    def test_memberships_are_a_partition(self):
        points, _ = _blobs(0)
        result = FuzzyCMeans(3, seed=1).fit(points)
        assert result.memberships.shape == (len(points), 3)
        assert np.allclose(result.memberships.sum(axis=1), 1.0)
        assert (result.memberships >= 0).all()

    def test_finds_planted_blobs(self):
        points, centers = _blobs(1)
        result = FuzzyCMeans(3, seed=2).fit(points)
        # Every true center should have a found centroid within 1.0.
        for center in centers:
            nearest = np.linalg.norm(result.centroids - center, axis=1).min()
            assert nearest < 1.0

    def test_hard_assignments_agree_with_blobs(self):
        points, _ = _blobs(2)
        result = FuzzyCMeans(3, seed=3).fit(points)
        hard = result.hard_assignments()
        # Each blob of 30 consecutive points should be essentially pure.
        for blob in range(3):
            labels = hard[blob * 30:(blob + 1) * 30]
            counts = np.bincount(labels, minlength=3)
            assert counts.max() >= 28

    def test_deterministic_given_seed(self):
        points, _ = _blobs(3)
        a = FuzzyCMeans(3, seed=4).fit(points)
        b = FuzzyCMeans(3, seed=4).fit(points)
        assert np.allclose(a.centroids, b.centroids)

    def test_single_cluster_centroid_is_weighted_mean(self):
        points, _ = _blobs(4)
        result = FuzzyCMeans(1, seed=0).fit(points)
        # With one cluster all memberships are 1, so the centroid is the mean.
        assert np.allclose(result.centroids[0], points.mean(axis=0), atol=1e-6)
        assert np.allclose(result.memberships, 1.0)

    def test_point_on_centroid_gets_full_membership(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        result = FuzzyCMeans(2, seed=1).fit(points)
        top = result.memberships.max(axis=1)
        assert np.allclose(top, 1.0)

    def test_small_fuzzifier_fits_without_overflow_warning(self):
        """Seeds sit on data points, so a zero distance meets a power
        above 1 when m < 2; the overflow is expected and the point's
        membership is then set exactly, so no RuntimeWarning may
        escape (the suite turns one into an error)."""
        points, _ = _blobs(6)
        result = FuzzyCMeans(3, m=1.5, seed=1).fit(points)
        assert np.allclose(result.memberships.sum(axis=1), 1.0)

    def test_objective_decreases_with_more_clusters(self):
        points, _ = _blobs(5)
        small = FuzzyCMeans(2, seed=1).fit(points).objective
        large = FuzzyCMeans(4, seed=1).fit(points).objective
        assert large < small


class TestProperties:
    @given(seed=st.integers(0, 50), k=st.integers(1, 4),
           n=st.integers(8, 40))
    @settings(max_examples=40, deadline=None)
    def test_invariants_on_random_data(self, seed, k, n):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-5, 5, size=(n, 2))
        result = FuzzyCMeans(k, seed=seed).fit(points)
        assert result.centroids.shape == (k, 2)
        assert np.allclose(result.memberships.sum(axis=1), 1.0, atol=1e-9)
        assert np.isfinite(result.objective)
        assert result.objective >= 0.0
        # Centroids stay inside the data's bounding box (convexity).
        lo, hi = points.min(axis=0) - 1e-9, points.max(axis=0) + 1e-9
        assert (result.centroids >= lo).all()
        assert (result.centroids <= hi).all()

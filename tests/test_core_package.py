"""Tests for TravelPackage and the Equation 1 objective evaluation."""

import numpy as np
import pytest

from repro.core.composite import CompositeItem
from repro.core.objective import (
    ObjectiveWeights,
    evaluate_objective,
    fuzzy_memberships,
    normalized_distances_to_centroids,
)
from repro.core.package import TravelPackage
from repro.core.query import DEFAULT_QUERY


@pytest.fixture()
def package(app, uniform_group, default_query):
    profile = uniform_group.profile()
    return app.kfc.build(profile, default_query)


class TestTravelPackage:
    def test_requires_cis(self):
        with pytest.raises(ValueError, match="at least one"):
            TravelPackage([])

    def test_len_iter_getitem(self, package):
        assert package.k == len(package) == 5
        assert package[0] is list(package)[0]

    def test_centroids_shape(self, package):
        assert package.centroids().shape == (5, 2)

    def test_all_pois_counts_repeats(self, package, default_query):
        assert len(package.all_pois()) == 5 * default_query.total_items()

    def test_validity(self, package, default_query):
        assert package.is_valid()
        assert package.is_valid(default_query)

    def test_is_valid_without_query_raises(self, package, poi_factory):
        bare = TravelPackage([CompositeItem([poi_factory()])])
        with pytest.raises(ValueError, match="no query"):
            bare.is_valid()

    def test_with_composite_item(self, package, poi_factory):
        replacement = CompositeItem([poi_factory(poi_id=12_345)])
        updated = package.with_composite_item(0, replacement)
        assert updated[0] is replacement
        assert package[0] is not replacement

    def test_appending_and_removing(self, package, poi_factory):
        extra = CompositeItem([poi_factory(poi_id=54_321)])
        bigger = package.appending(extra)
        assert bigger.k == package.k + 1
        smaller = bigger.without_composite_item(bigger.k - 1)
        assert smaller.k == package.k

    def test_metric_wrappers_agree_with_functions(self, package, app,
                                                  uniform_group):
        from repro.metrics.dimensions import representativity

        assert package.representativity() == pytest.approx(
            representativity(package.centroids())
        )
        s = package.raw_cohesiveness_sum() + 1.0
        assert package.cohesiveness(s) == pytest.approx(1.0)
        profile = uniform_group.profile()
        assert package.personalization(profile, app.item_index) > 0.0


class TestObjective:
    def test_weights_validation(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(alpha=-0.1)

    def test_fuzzy_memberships_partition(self):
        rng = np.random.default_rng(0)
        dists = rng.uniform(0.1, 1.0, size=(20, 4))
        w = fuzzy_memberships(dists)
        assert np.allclose(w.sum(axis=1), 1.0)

    def test_fuzzy_memberships_zero_distance(self):
        dists = np.array([[0.0, 1.0], [0.5, 0.5]])
        w = fuzzy_memberships(dists)
        assert w[0, 0] == pytest.approx(1.0)
        assert w[1, 0] == pytest.approx(0.5)

    def test_fuzzy_memberships_bad_fuzzifier(self):
        with pytest.raises(ValueError):
            fuzzy_memberships(np.ones((2, 2)), fuzzifier=1.0)

    def test_fuzzy_memberships_bit_identical_to_tensor_form(self):
        """The (n, k)-memory implementation must reproduce the original
        (n, k, k) broadcast *exactly* -- golden-pinned package centroids
        flow through these values, so drift of even one ulp is a
        regression, not noise."""

        def tensor_reference(distances, fuzzifier):
            d = np.asarray(distances, dtype=float)
            zero_rows = np.isclose(d, 0.0).any(axis=1)
            safe = np.maximum(d, 1e-300)
            exponent = 2.0 / (fuzzifier - 1.0)
            ratio = safe[:, :, None] / safe[:, None, :]
            memberships = 1.0 / (ratio ** exponent).sum(axis=2)
            for i in np.flatnonzero(zero_rows):
                hits = np.isclose(d[i], 0.0)
                memberships[i] = hits / hits.sum()
            return memberships

        rng = np.random.default_rng(7)
        for n, k in ((1, 2), (17, 3), (200, 5), (123, 8)):
            dists = rng.uniform(0.0, 3.0, size=(n, k))
            dists[rng.uniform(size=n) < 0.1] = 0.0  # coincident rows
            for fuzzifier in (1.3, 2.0, 3.5):
                got = fuzzy_memberships(dists, fuzzifier)
                want = tensor_reference(dists, fuzzifier)
                assert np.array_equal(got, want)

    def test_fcm_memberships_bit_identical_to_tensor_form(self):
        """Same pin for the clustering-side update (it shares the
        kernel and feeds FCM centroid seeding)."""
        from repro.clustering.fuzzy_cmeans import (
            FuzzyCMeans,
            fcm_memberships,
            sq_distances,
        )

        def tensor_reference(sq, exponent):
            zero_rows = np.isclose(sq, 0.0).any(axis=1)
            safe = np.maximum(sq, 1e-300)
            ratio = safe[:, :, None] / safe[:, None, :]
            memberships = 1.0 / (ratio ** (exponent / 2.0)).sum(axis=2)
            for i in np.flatnonzero(zero_rows):
                hits = np.isclose(sq[i], 0.0)
                memberships[i] = hits / hits.sum()
            return memberships

        rng = np.random.default_rng(11)
        x = rng.uniform(-5, 5, size=(150, 2))
        fcm = FuzzyCMeans(n_clusters=4, seed=3)
        centroids = x[:4].copy()
        exponent = 2.0 / (fcm.m - 1.0)
        sq = sq_distances(np.ascontiguousarray(x.T), centroids)
        got = fcm_memberships(sq, exponent / 2.0).T
        diff = x[:, None, :] - centroids[None, :, :]
        want = tensor_reference((diff ** 2).sum(axis=2), exponent)
        assert np.array_equal(got, want)

    def test_normalized_distances_in_unit_range(self, app, package):
        dist = normalized_distances_to_centroids(app.dataset,
                                                 package.centroids())
        assert dist.shape == (len(app.dataset), package.k)
        assert dist.min() >= 0.0
        assert dist.max() <= 1.0 + 1e-9

    def test_objective_positive_and_finite(self, app, package, uniform_group):
        profile = uniform_group.profile()
        value = evaluate_objective(app.dataset, package, profile,
                                   app.item_index)
        assert np.isfinite(value)
        assert value > 0.0

    def test_kfc_beats_random_package(self, app, uniform_group,
                                      default_query):
        from repro.core.baselines import random_package

        profile = uniform_group.profile()
        kfc_tp = app.kfc.build(profile, default_query)
        rand_tp = random_package(app.dataset, default_query, seed=5)
        weights = ObjectiveWeights()
        assert evaluate_objective(app.dataset, kfc_tp, profile,
                                  app.item_index, weights) > \
            evaluate_objective(app.dataset, rand_tp, profile,
                               app.item_index, weights)

    def test_gamma_scaling_monotone(self, app, package, uniform_group):
        """More personalization weight can only raise the score of a
        fixed package (all cosine terms are non-negative here)."""
        profile = uniform_group.profile()
        low = evaluate_objective(app.dataset, package, profile,
                                 app.item_index, ObjectiveWeights(gamma=0.5))
        high = evaluate_objective(app.dataset, package, profile,
                                  app.item_index, ObjectiveWeights(gamma=2.0))
        assert high >= low

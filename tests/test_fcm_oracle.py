"""Fuzzy c-means and the objective's memberships against
``tests/fcm_oracle.py``: bit-identical for any points, cluster count,
fuzzifier and seed.

The ``(k, n)`` kernel adds the ``k`` ratio terms of a membership in
numpy's pairwise order, which switches from a sequential sum to eight
accumulators at 8 terms, so ``k`` is drawn across that boundary.
Coincident points (a point on a centroid, two centroids seeded on one
spot) take the kernel's exact-hit branch.  The oracle runs under
``np.errstate(over="ignore")``: with a fuzzifier below 2 its power
overflows on points that coincide with a centroid, which it then
overwrites.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcm_oracle
from repro.clustering.fuzzy_cmeans import FuzzyCMeans
from repro.core.objective import fuzzy_memberships
from repro.reduction import pairwise_sum

fuzzifiers = st.floats(min_value=1.0, max_value=4.0, exclude_min=True,
                       allow_nan=False)


@st.composite
def point_sets(draw, max_k: int = 12, max_n: int = 60):
    """``(k, points)``: ``n >= k`` points in a 10 km square, some of them
    copies of others."""
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(k, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = rng.uniform(-5.0, 5.0, size=(n, 2))
    copies = draw(st.integers(0, n // 2))
    points[rng.integers(n, size=copies)] = points[rng.integers(n, size=copies)]
    return k, points


class TestFitMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(point_sets(), fuzzifiers, st.integers(0, 10 ** 6))
    def test_random_points(self, drawn, m, seed):
        k, points = drawn
        model = FuzzyCMeans(k, m=m, seed=seed)
        got = model.fit(points)
        with np.errstate(over="ignore"):
            centroids, memberships, n_iterations, objective = (
                fcm_oracle.fit(model, points))
        assert got.centroids.tobytes() == centroids.tobytes()
        assert got.memberships.tobytes() == memberships.tobytes()
        assert got.memberships.flags.c_contiguous
        assert got.n_iterations == n_iterations
        assert got.objective == objective

    def test_all_points_coincide(self):
        points = np.tile([[1.5, -2.0]], (9, 1))
        for k in (1, 3, 9):
            model = FuzzyCMeans(k, m=1.5, seed=k)
            got = model.fit(points)
            with np.errstate(over="ignore"):
                want = fcm_oracle.fit(model, points)
            assert got.centroids.tobytes() == want[0].tobytes()
            assert got.memberships.tobytes() == want[1].tobytes()


class TestObjectiveMembershipsMatchOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 12), fuzzifiers,
           st.integers(0, 2 ** 32 - 1))
    def test_random_distances(self, n, k, fuzzifier, seed):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.0, 3.0, size=(n, k)) * 10.0 ** rng.uniform(
            -3, 3, size=(n, k))
        d[rng.uniform(size=n) < 0.1] = 0.0        # on every centroid
        d[rng.uniform(size=(n, k)) < 0.05] = 0.0  # on some centroids
        got = fuzzy_memberships(d, fuzzifier)
        with np.errstate(over="ignore"):
            want = fcm_oracle.fuzzy_memberships(d, fuzzifier)
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous


class TestPairwiseSumOverArrays:
    @pytest.mark.parametrize("terms", [1, 2, 7, 8, 9, 15, 16, 17, 130])
    def test_matches_last_axis_sum_and_keeps_inputs(self, terms):
        rng = np.random.default_rng(terms)
        rows = rng.random((terms, 33)) * 10.0 ** rng.uniform(-5, 5,
                                                            (terms, 33))
        before = rows.copy()
        total = pairwise_sum(rows)
        assert total.tobytes() == rows.T.copy().sum(axis=1).tobytes()
        assert rows.tobytes() == before.tobytes()
        assert not np.shares_memory(total, rows)

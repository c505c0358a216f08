"""The ``(n, k)`` fuzzy c-means memberships, kept as a test oracle.

``repro.clustering.fuzzy_cmeans`` computes every membership update with
one kernel over a ``(k, n)`` matrix and sums in numpy's pairwise order
by hand.  This module is the reference it must match bit for bit: the
former ``FuzzyCMeans.fit`` loop, ``_sq_distances`` and ``_memberships``
(``(n, k)`` layout, ``np.isclose``, last-axis ``.sum``), and the former
``repro.core.objective.fuzzy_memberships``.  The bodies are verbatim,
with ``self`` renamed ``model``; :func:`fit` returns the tuple a
``FuzzyCMeansResult`` holds.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.fuzzy_cmeans import FuzzyCMeans


def fit(model: FuzzyCMeans, points: np.ndarray):
    """``(centroids, memberships, n_iterations, objective)`` of the
    former ``FuzzyCMeans.fit`` on ``points``."""
    x = np.asarray(points, dtype=float)
    n = len(x)
    if n < model.n_clusters:
        raise ValueError(
            f"need at least {model.n_clusters} points, got {n}"
        )
    rng = np.random.default_rng(model.seed)
    centroids = model._init_centroids(x, rng)
    exponent = 2.0 / (model.m - 1.0)

    n_iter = 0
    memberships = _memberships(x, centroids, exponent)
    for n_iter in range(1, model.max_iterations + 1):
        weights = memberships ** model.m
        denom = weights.sum(axis=0)
        dead = denom <= 1e-12
        if dead.any():
            coverage = memberships.max(axis=1)
            for j in np.flatnonzero(dead):
                centroids[j] = x[int(np.argmin(coverage))]
            memberships = _memberships(x, centroids, exponent)
            weights = memberships ** model.m
            denom = weights.sum(axis=0)
        new_centroids = (weights.T @ x) / denom[:, None]
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        memberships = _memberships(x, centroids, exponent)
        if shift < model.tol:
            break

    sq_dist = _sq_distances(x, centroids)
    objective = float(((memberships ** model.m) * sq_dist).sum())
    return centroids, memberships, n_iter, objective


def _sq_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n, k)`` squared Euclidean distances to centroids."""
    diff = x[:, None, :] - centroids[None, :, :]
    return (diff ** 2).sum(axis=2)


def _memberships(x: np.ndarray, centroids: np.ndarray,
                 exponent: float) -> np.ndarray:
    """FCM membership update; rows sum to one."""
    sq = _sq_distances(x, centroids)
    zero_rows = np.isclose(sq, 0.0).any(axis=1)
    safe = np.maximum(sq, 1e-300)
    memberships = np.empty_like(safe)
    for j in range(safe.shape[1]):
        ratio = safe[:, j, None] / safe
        memberships[:, j] = 1.0 / (ratio ** (exponent / 2.0)).sum(axis=1)
    if zero_rows.any():
        for i in np.flatnonzero(zero_rows):
            hits = np.isclose(sq[i], 0.0)
            memberships[i] = hits / hits.sum()
    return memberships


def fuzzy_memberships(distances: np.ndarray,
                      fuzzifier: float = 2.0) -> np.ndarray:
    """FCM membership weights from an ``(n, k)`` distance matrix."""
    if fuzzifier <= 1.0:
        raise ValueError("fuzzifier must be > 1")
    d = np.asarray(distances, dtype=float)
    zero_rows = np.isclose(d, 0.0).any(axis=1)
    safe = np.maximum(d, 1e-300)
    exponent = 2.0 / (fuzzifier - 1.0)
    memberships = np.empty_like(safe)
    for j in range(safe.shape[1]):
        ratio = safe[:, j, None] / safe
        with np.errstate(over="ignore"):
            memberships[:, j] = 1.0 / (ratio ** exponent).sum(axis=1)
    if zero_rows.any():
        for i in np.flatnonzero(zero_rows):
            hits = np.isclose(d[i], 0.0)
            memberships[i] = hits / hits.sum()
    return memberships

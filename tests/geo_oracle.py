"""Brute-force geometry, kept as test oracles.

``repro.geo.distance.max_pairwise_distance`` never materializes the
n x n distance matrix: it scans row blocks, and a live close or add
updates the previous maximum in O(n).  The matrix helpers build the
whole symmetric matrix with one broadcast, as ``src/`` once did, so a
test can compare the normalizer with
``equirectangular_matrix(coords).max()`` by ``==``.

The customization operators answer nearest-POI queries with one
vectorized pass over the city bundle's columns.  :func:`nearest_pois`
answers them the slow way -- one scalar ``equirectangular_km`` call
per POI, sorted by ``(distance, id)`` -- so a test can compare the two
by ``==``, ties and float rounding included.
"""

import numpy as np

from repro.data.poi import Category
from repro.geo.distance import equirectangular_km, haversine_km


def _as_coord_array(coords) -> np.ndarray:
    """Coerce a sequence of ``(lat, lon)`` pairs to an ``(n, 2)`` array."""
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array of (lat, lon) pairs, "
                         f"got shape {arr.shape}")
    return arr


def haversine_matrix(coords) -> np.ndarray:
    """Symmetric pairwise haversine distance matrix for ``(lat, lon)`` pairs."""
    arr = _as_coord_array(coords)
    lat = arr[:, 0][:, None]
    lon = arr[:, 1][:, None]
    return haversine_km(lat, lon, lat.T, lon.T)


def equirectangular_matrix(coords) -> np.ndarray:
    """Symmetric pairwise equirectangular distance matrix."""
    arr = _as_coord_array(coords)
    lat = arr[:, 0][:, None]
    lon = arr[:, 1][:, None]
    return equirectangular_km(lat, lon, lat.T, lon.T)


def normalized_distance_matrix(coords) -> np.ndarray:
    """Pairwise equirectangular distances scaled into ``[0, 1]``.

    Divides by the largest observed distance, per Section 3.2.  If all
    points coincide the matrix is all zeros.
    """
    mat = equirectangular_matrix(coords)
    largest = mat.max()
    if largest <= 0.0:
        return np.zeros_like(mat)
    return mat / largest


def brute_force_nearest(points, lat, lon, k):
    """Keys of the ``k`` points nearest to ``(lat, lon)``.

    ``points`` are ``(key, lat, lon)`` triples.  One scalar
    ``equirectangular_km`` per point, ordered by ``(distance, key)``;
    ``k <= 0`` selects nothing.
    """
    scored = sorted(
        (float(equirectangular_km(lat, lon, plat, plon)), key)
        for key, plat, plon in points
    )
    return [key for _, key in scored[:max(k, 0)]]


def nearest_pois(dataset, lat, lon, k, category=None, poi_type=None,
                 exclude=()):
    """The ``k`` POIs of ``dataset`` nearest to ``(lat, lon)`` that
    match the optional ``category``/``poi_type`` filters and are not in
    ``exclude`` -- what ``CustomizationSession`` must return."""
    cat = Category.parse(category) if category is not None else None
    points = [
        (p.id, p.lat, p.lon) for p in dataset
        if (cat is None or p.cat == cat)
        and (poi_type is None or p.type == poi_type)
        and p.id not in exclude
    ]
    return [dataset[i] for i in brute_force_nearest(points, lat, lon, k)]

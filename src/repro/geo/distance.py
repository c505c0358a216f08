"""Geographic distance functions.

Two distance implementations are provided, mirroring Section 3.2 of the
paper:

``haversine_km``
    The great-circle distance on a spherical Earth.  Treated as ground
    truth in tests and benchmarks.

``equirectangular_km``
    The equirectangular (plate carree) approximation: project longitude
    differences by the cosine of the mean latitude and apply Pythagoras.
    The paper reports a ~30x speed-up over haversine with only 0.1%
    precision loss at intra-city scales; ``benchmarks/bench_distance.py``
    re-measures both numbers.

All functions accept scalars or numpy arrays and broadcast element-wise.
Distances are returned in kilometres.
"""

from __future__ import annotations

import numpy as np

#: Mean Earth radius in kilometres (IUGG value).
EARTH_RADIUS_KM = 6371.0088


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance between two points, in kilometres.

    Accepts scalars or broadcastable numpy arrays of latitudes and
    longitudes in degrees.

    >>> round(float(haversine_km(48.8566, 2.3522, 41.3874, 2.1686)), 0)
    831.0
    """
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=float))
                              for x in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def equirectangular_km(lat1, lon1, lat2, lon2):
    """Equirectangular approximation of the great-circle distance.

    Projects the longitude delta by ``cos`` of the mean latitude and takes
    the Euclidean norm.  Accurate to well under 0.1% for intra-city
    distances (see ``tests/test_geo_distance.py``), and much cheaper than
    the haversine because it avoids the ``arcsin``/``sqrt``-of-``sin``
    chain.

    >>> float(equirectangular_km(48.85, 2.35, 48.85, 2.35))
    0.0
    """
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=float))
                              for x in (lat1, lon1, lat2, lon2))
    x = (lon2 - lon1) * np.cos((lat1 + lat2) / 2.0)
    y = lat2 - lat1
    return EARTH_RADIUS_KM * np.sqrt(x * x + y * y)


def _as_coord_array(coords) -> np.ndarray:
    """Coerce a sequence of ``(lat, lon)`` pairs to an ``(n, 2)`` array."""
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array of (lat, lon) pairs, got shape {arr.shape}")
    return arr


#: Pairs per block of the exact scan: bounds its temporaries to under
#: 1 MB whatever the city's size, instead of one n x n matrix.
_BLOCK_PAIRS = 1 << 14


def max_pairwise_distance(coords, previous: float | None = None,
                          added=None, removed=None) -> float:
    """Largest pairwise equirectangular distance among ``(lat, lon)`` pairs.

    The paper normalizes every distance by "the largest observed distance
    value"; this helper computes that normalizer.  Returns 0.0 for fewer
    than two points so callers can divide defensively.

    Without ``previous`` it scans the upper triangle in row blocks, in
    O(n) memory.  Given the ``previous`` maximum of a set that one point
    joined (``added``, a row of ``coords``) or left (``removed``), it
    costs O(n): ``max(previous, max_j d(added, j))``, or ``previous``
    when the removed point's farthest partner is nearer than it.  Only a
    removed endpoint of a maximal pair rescans.  Every answer is the
    same float a full scan gives: ``equirectangular_km`` is bitwise
    symmetric and ``max`` is exact (finite coordinates only).
    """
    arr = _as_coord_array(coords)
    lat, lon = arr[:, 0], arr[:, 1]
    if previous is not None:
        lat0, lon0 = added if removed is None else removed
        farthest = float(equirectangular_km(lat0, lon0, lat, lon)
                         .max(initial=0.0))
        if removed is None or farthest < previous:
            return max(previous, farthest)
    rows = max(1, _BLOCK_PAIRS // max(len(arr), 1))
    largest = 0.0
    for start in range(0, len(arr) - 1, rows):
        block = equirectangular_km(lat[start:start + rows, None],
                                   lon[start:start + rows, None],
                                   lat[start + 1:], lon[start + 1:])
        largest = max(largest, float(block.max()))
    return largest

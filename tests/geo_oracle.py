"""Full-matrix distance helpers, kept as a test oracle.

``repro.geo.distance.max_pairwise_distance`` never materializes the
n x n distance matrix: it scans row blocks, and a live close or add
updates the previous maximum in O(n).  These helpers build the whole
symmetric matrix with one broadcast, as ``src/`` once did, so a test
can compare the normalizer with ``equirectangular_matrix(coords).max()``
by ``==``.
"""

import numpy as np

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

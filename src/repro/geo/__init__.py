"""Geographic substrate for GroupTravel.

The paper (Section 3.2) measures distances between POIs with an
*equirectangular* approximation of the haversine formula: within a city
the Earth's surface is locally flat, so projecting latitude/longitude onto
a plane and taking the Euclidean norm is accurate to a fraction of a
percent while being dramatically cheaper.  This subpackage implements

* :mod:`repro.geo.distance` -- haversine (ground truth), equirectangular
  (the paper's fast path) and the distance normalizer;
* :mod:`repro.geo.rectangle` -- axis-aligned map rectangles backing the
  ``GENERATE(RECTANGLE(x, y, w, h))`` operator.
"""

from repro.geo.distance import (
    EARTH_RADIUS_KM,
    equirectangular_km,
    haversine_km,
    max_pairwise_distance,
)
from repro.geo.rectangle import Rectangle

__all__ = [
    "EARTH_RADIUS_KM",
    "Rectangle",
    "equirectangular_km",
    "haversine_km",
    "max_pairwise_distance",
]

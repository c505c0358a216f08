"""Composite Items (Section 3.1).

A Composite Item is a set of POIs of different categories -- "things to
do in one area of the city", typically one day of a trip.  Validity with
respect to a query requires (i) exactly the requested number of POIs per
category and (ii) total cost within budget.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable, Iterator

import numpy as np

from repro.data.poi import POI, Category
from repro.core.query import GroupQuery
from repro.metrics.dimensions import raw_cohesiveness_sum
from repro.reduction import ordered_sum


class CompositeItem:
    """An unordered bundle of POIs with an optional anchoring centroid.

    Args:
        pois: The member POIs.  A CI is a *set*: duplicate POI ids are
            rejected (the same POI can, however, appear in several CIs
            of one package -- that is the point of fuzzy clustering).
        centroid: ``(lat, lon)`` the CI was built around.  Defaults to
            the POIs' mean coordinate.
    """

    def __init__(self, pois: Iterable[POI],
                 centroid: tuple[float, float] | None = None) -> None:
        self.pois: tuple[POI, ...] = tuple(pois)
        ids = [p.id for p in self.pois]
        if len(set(ids)) != len(ids):
            raise ValueError("a Composite Item cannot contain the same POI twice")
        if centroid is None:
            if not self.pois:
                raise ValueError("an empty CI needs an explicit centroid")
            lats = [p.lat for p in self.pois]
            lons = [p.lon for p in self.pois]
            centroid = (float(np.mean(lats)), float(np.mean(lons)))
        self.centroid: tuple[float, float] = (float(centroid[0]), float(centroid[1]))

    def __len__(self) -> int:
        return len(self.pois)

    def __iter__(self) -> Iterator[POI]:
        return iter(self.pois)

    def __contains__(self, poi: POI | int) -> bool:
        poi_id = poi.id if isinstance(poi, POI) else poi
        return any(p.id == poi_id for p in self.pois)

    @property
    def poi_ids(self) -> frozenset[int]:
        """The member POI ids."""
        return frozenset(p.id for p in self.pois)

    def total_cost(self) -> float:
        """Summed visiting cost of the member POIs, left to right."""
        return ordered_sum(p.cost for p in self.pois)

    def category_counts(self) -> Counter:
        """How many member POIs each category has."""
        return Counter(p.cat for p in self.pois)

    def is_valid(self, query: GroupQuery) -> bool:
        """Validity per Section 3.1: exact category counts and within
        budget."""
        counts = self.category_counts()
        for cat in Category:
            if counts.get(cat, 0) != query.count(cat):
                return False
        return self.total_cost() <= query.budget

    def internal_distance(self) -> float:
        """Summed pairwise distance between member POIs (the CI's
        contribution to Equation 3's inner term)."""
        return raw_cohesiveness_sum([self.pois])

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization."""
        return {
            "pois": [p.to_dict() for p in self.pois],
            "centroid": list(self.centroid),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, spliced from the members'
        cached :meth:`POI.to_json` texts."""
        lat, lon = self.centroid
        return ('{"pois": [' + ", ".join([p.to_json() for p in self.pois])
                + '], "centroid": [' + _float_json(lat) + ", "
                + _float_json(lon) + "]}")

    @classmethod
    def from_dict(cls, data: dict) -> "CompositeItem":
        """Inverse of :meth:`to_dict`."""
        centroid = data.get("centroid")
        return cls(
            (POI.from_dict(d) for d in data["pois"]),
            centroid=tuple(centroid) if centroid is not None else None,
        )

    # -- functional updates (customization builds new CIs) ------------------

    def without(self, poi_id: int) -> "CompositeItem":
        """A new CI lacking one POI.  Raises ``KeyError`` if absent.

        The centroid is preserved: removing an item should not move the
        neighbourhood the CI anchors.
        """
        if poi_id not in self:
            raise KeyError(f"POI {poi_id} is not in this Composite Item")
        return CompositeItem(
            (p for p in self.pois if p.id != poi_id), centroid=self.centroid
        )

    def adding(self, poi: POI) -> "CompositeItem":
        """A new CI with one POI added.  Raises ``ValueError`` on
        duplicates."""
        if poi in self:
            raise ValueError(f"POI {poi.id} is already in this Composite Item")
        return CompositeItem((*self.pois, poi), centroid=self.centroid)

    def replacing(self, poi_id: int, replacement: POI) -> "CompositeItem":
        """A new CI with ``poi_id`` swapped for ``replacement``."""
        return self.without(poi_id).adding(replacement)

    def __repr__(self) -> str:
        cats = ", ".join(f"{c.value}:{n}" for c, n in sorted(
            self.category_counts().items(), key=lambda kv: kv[0].value))
        return (f"CompositeItem(n={len(self)}, {cats}, "
                f"cost={self.total_cost():.2f})")


def _float_json(value: float) -> str:
    """``json.dumps(value)`` for a float: its ``repr``, or the spelling
    ``json`` gives the non-finite ones."""
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)

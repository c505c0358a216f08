"""The ``POIDataset`` container.

A thin, well-indexed collection of POIs for one city: constant-time id
lookup, per-category views, coordinate matrices for the clustering code,
the distance normalizer, and JSON round-tripping so generated cities can
be cached on disk.  Neighbourhood queries run over the city's
:class:`~repro.core.arrays.CityArrays` columns instead
(:class:`~repro.core.customize.CustomizationSession`).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.data.poi import CATEGORIES, POI, Category
from repro.geo.distance import max_pairwise_distance


class POIDataset:
    """An immutable collection of POIs with fast lookups.

    Args:
        pois: The POIs; ids must be unique.
        city: Optional city name the POIs belong to.
    """

    def __init__(self, pois: Iterable[POI], city: str = "") -> None:
        self._pois: dict[int, POI] = {}
        for poi in pois:
            if poi.id in self._pois:
                raise ValueError(f"duplicate POI id {poi.id}")
            self._pois[poi.id] = poi
        self.city = city
        self._by_category: dict[Category, tuple[POI, ...]] = {
            cat: tuple(p for p in self._pois.values() if p.cat == cat)
            for cat in CATEGORIES
        }
        self._max_distance: float | None = None

    # -- basic container protocol ------------------------------------------

    def __len__(self) -> int:
        return len(self._pois)

    def __iter__(self) -> Iterator[POI]:
        return iter(self._pois.values())

    def __contains__(self, poi_id: int) -> bool:
        return poi_id in self._pois

    def __getitem__(self, poi_id: int) -> POI:
        try:
            return self._pois[poi_id]
        except KeyError:
            raise KeyError(f"no POI with id {poi_id} in dataset") from None

    def get(self, poi_id: int, default: POI | None = None) -> POI | None:
        """Like ``dict.get`` for POI ids."""
        return self._pois.get(poi_id, default)

    @property
    def ids(self) -> tuple[int, ...]:
        """All POI ids, in insertion order."""
        return tuple(self._pois)

    # -- category views ------------------------------------------------------

    def by_category(self, category: Category | str) -> tuple[POI, ...]:
        """All POIs of one category."""
        return self._by_category[Category.parse(category)]

    def category_counts(self) -> dict[Category, int]:
        """Number of POIs per category."""
        return {cat: len(pois) for cat, pois in self._by_category.items()}

    # -- geometry -------------------------------------------------------------

    def coordinates(self, pois: Iterable[POI] | None = None) -> np.ndarray:
        """``(n, 2)`` array of ``(lat, lon)`` for ``pois`` (default: all)."""
        source = list(pois) if pois is not None else list(self._pois.values())
        if not source:
            return np.empty((0, 2))
        return np.array([[p.lat, p.lon] for p in source])

    @property
    def max_distance_km(self) -> float:
        """Largest pairwise distance in the dataset (the paper's distance
        normalizer).  Cached after first computation."""
        if self._max_distance is None:
            self._max_distance = max_pairwise_distance(self.coordinates())
        return self._max_distance

    # -- persistence ------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the dataset to a JSON string."""
        payload = {"city": self.city, "pois": [p.to_dict() for p in self]}
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "POIDataset":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        return cls((POI.from_dict(d) for d in payload["pois"]),
                   city=payload.get("city", ""))

    def save(self, path: str | Path) -> None:
        """Write the dataset to ``path`` as JSON."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "POIDataset":
        """Read a dataset previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())

    # -- functional updates -------------------------------------------------------

    def subset(self, ids: Iterable[int]) -> "POIDataset":
        """A new dataset containing only the given POI ids."""
        return POIDataset((self._pois[i] for i in ids), city=self.city)

    # The three single-POI updates below derive the next dataset from
    # this one's indexes: a ``dict`` copy of the id map and one rebuilt
    # category tuple, each in insertion order, so the result equals
    # ``POIDataset`` over the updated POI list (ids, views, lookups)
    # without re-walking the city in Python.

    def repriced(self, poi_id: int, cost: float) -> "POIDataset":
        """A new dataset whose POI ``poi_id`` costs ``cost``, in the same
        position.  No coordinate moves, so a computed distance
        normalizer carries over."""
        old = self[poi_id]
        new = replace(old, cost=cost)
        pois = dict(self._pois)
        pois[poi_id] = new
        members = tuple(new if p is old else p
                        for p in self._by_category[old.cat])
        derived = self._derived(pois, old.cat, members)
        derived._max_distance = self._max_distance
        return derived

    def without_poi(self, poi_id: int) -> "POIDataset":
        """A new dataset lacking POI ``poi_id``."""
        pois = dict(self._pois)
        try:
            old = pois.pop(poi_id)
        except KeyError:
            raise KeyError(f"no POI with id {poi_id} in dataset") from None
        members = tuple(p for p in self._by_category[old.cat]
                        if p is not old)
        return self._derived(pois, old.cat, members)

    def with_poi(self, poi: POI) -> "POIDataset":
        """A new dataset with ``poi`` appended."""
        if poi.id in self._pois:
            raise ValueError(f"duplicate POI id {poi.id}")
        pois = dict(self._pois)
        pois[poi.id] = poi
        return self._derived(pois, poi.cat,
                             self._by_category[poi.cat] + (poi,))

    def _derived(self, pois: dict[int, POI], cat: Category,
                 members: tuple[POI, ...]) -> "POIDataset":
        """A dataset over ``pois`` sharing this one's category views but
        ``cat``'s, which is ``members``; its normalizer is uncomputed."""
        derived = object.__new__(POIDataset)
        derived._pois = pois
        derived.city = self.city
        derived._by_category = dict(self._by_category)
        derived._by_category[cat] = members
        derived._max_distance = None
        return derived

    def __repr__(self) -> str:
        counts = ", ".join(f"{cat.value}={n}" for cat, n in self.category_counts().items())
        return f"POIDataset(city={self.city!r}, n={len(self)}, {counts})"

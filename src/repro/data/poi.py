"""The Point-Of-Interest record and its four categories.

Matches the item schema of Table 1 in the paper: every POI has a unique
``id``, a ``name``, a category (one of ``acco``, ``trans``, ``rest``,
``attr``), geographic ``coordinates``, a ``type`` within its category,
a bag of ``tags``, and a visiting ``cost``.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field


class Category(str, enum.Enum):
    """The four POI categories of the TourPedia dataset (Section 2.1)."""

    ACCOMMODATION = "acco"
    TRANSPORTATION = "trans"
    RESTAURANT = "rest"
    ATTRACTION = "attr"

    def __str__(self) -> str:  # keep f-strings tidy: f"{cat}" -> "acco"
        return self.value

    @classmethod
    def parse(cls, value: "Category | str") -> "Category":
        """Coerce a string like ``"acco"`` (or a Category) to a Category."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown POI category {value!r}; expected one of "
                f"{[c.value for c in cls]}"
            ) from None


#: Canonical category ordering used by queries and reports.
CATEGORIES: tuple[Category, ...] = (
    Category.ACCOMMODATION,
    Category.TRANSPORTATION,
    Category.RESTAURANT,
    Category.ATTRACTION,
)


@dataclass(frozen=True)
class POI:
    """A Point Of Interest.

    Attributes:
        id: Unique integer identifier within a dataset.
        name: Human-readable name (e.g. ``"Le Burgundy"``).
        cat: One of the four categories.
        lat: Latitude in degrees.
        lon: Longitude in degrees.
        type: The POI's type within its category (e.g. ``"hotel"`` for an
            accommodation, ``"tram station"`` for transportation).
        tags: User-contributed descriptive tags (Foursquare-style).
        cost: Cost of visiting the POI.  Per Section 2.1 this is
            estimated as ``log(#checkins)``.
    """

    id: int
    name: str
    cat: Category
    lat: float
    lon: float
    type: str = ""
    tags: tuple[str, ...] = field(default_factory=tuple)
    cost: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "cat", Category.parse(self.cat))
        if not isinstance(self.tags, tuple):
            object.__setattr__(self, "tags", tuple(self.tags))
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of range for POI {self.id}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} out of range for POI {self.id}")
        if not (math.isfinite(self.cost) and self.cost >= 0):
            raise ValueError(f"cost must be finite and non-negative for POI "
                             f"{self.id}, got {self.cost!r}")

    @property
    def coordinates(self) -> tuple[float, float]:
        """``(lat, lon)`` pair, matching the paper's ``i.coordinates``."""
        return (self.lat, self.lon)

    def to_dict(self) -> dict:
        """Plain-dict form used for JSON serialization."""
        return {
            "id": self.id,
            "name": self.name,
            "cat": self.cat.value,
            "lat": self.lat,
            "lon": self.lon,
            "type": self.type,
            "tags": list(self.tags),
            "cost": self.cost,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, computed on first use and kept
        with this POI.  A POI never changes (a reprice, close or add
        makes a new one), so the text cannot go stale, and it is freed
        with the POI.  Threads racing on the first use compute the same
        text, so either may be kept."""
        text = self.__dict__.get("_json")
        if text is None:
            text = json.dumps(self.to_dict())
            object.__setattr__(self, "_json", text)
        return text

    @classmethod
    def from_dict(cls, data: dict) -> "POI":
        """Inverse of :meth:`to_dict`."""
        return cls(
            id=int(data["id"]),
            name=str(data["name"]),
            cat=Category.parse(data["cat"]),
            lat=float(data["lat"]),
            lon=float(data["lon"]),
            type=str(data.get("type", "")),
            tags=tuple(data.get("tags", ())),
            cost=float(data.get("cost", 0.0)),
        )

"""Customizing Travel Packages (Section 3.3).

Group members interact with a generated package through four atomic
operators:

* ``REMOVE(i, CI)`` -- drop a POI from a Composite Item;
* ``ADD(i, CI)`` -- add a POI, chosen from the closest items matching
  an optional category/type filter;
* ``REPLACE(i, CI)`` -- swap a POI for the geographically closest POI
  of the same category (system-recommended);
* ``GENERATE(RECTANGLE(x, y, w, h))`` -- create a fresh valid, cohesive
  CI centred in a map rectangle.

Deleting a whole CI is iterated removal (a convenience wrapper is
provided).  A :class:`CustomizationSession` applies operators to a
package and records every interaction; the log is the input to the
profile-refinement strategies in :mod:`repro.core.refine`.
"""

from __future__ import annotations

import enum
from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from repro.core.arrays import CityArrays
from repro.core.assembly import assemble_composite_items, composite_items
from repro.core.package import TravelPackage
from repro.core.query import GroupQuery
from repro.data.dataset import POIDataset
from repro.data.poi import POI, Category
from repro.geo.distance import equirectangular_km
from repro.geo.rectangle import Rectangle
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex


class InteractionKind(str, enum.Enum):
    """The atomic customization operators."""

    REMOVE = "remove"
    ADD = "add"
    REPLACE = "replace"
    GENERATE = "generate"


@dataclass(frozen=True)
class Interaction:
    """One logged customization step.

    Attributes:
        kind: Which operator was applied.
        added: POIs the operation introduced (``I+`` in Section 3.3).
        removed: POIs the operation discarded (``I-``).
        ci_index: Index of the affected CI (the new CI for GENERATE).
        actor: Index of the group member who acted, when known; the
            *individual* refinement strategy needs it, the *batch*
            strategy ignores it.
    """

    kind: InteractionKind
    added: tuple[POI, ...] = ()
    removed: tuple[POI, ...] = ()
    ci_index: int = 0
    actor: int | None = None

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization (session logs cross
        the wire so clients can audit refinement inputs)."""
        return {
            "kind": self.kind.value,
            "added": [p.to_dict() for p in self.added],
            "removed": [p.to_dict() for p in self.removed],
            "ci_index": self.ci_index,
            "actor": self.actor,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Interaction":
        """Inverse of :meth:`to_dict`."""
        actor = data.get("actor")
        return cls(
            kind=InteractionKind(data["kind"]),
            added=tuple(POI.from_dict(d) for d in data.get("added", ())),
            removed=tuple(POI.from_dict(d) for d in data.get("removed", ())),
            ci_index=int(data.get("ci_index", 0)),
            actor=int(actor) if actor is not None else None,
        )


@dataclass
class CustomizationSession:
    """A mutable editing session over one Travel Package.

    Args:
        package: The package being customized (never mutated; each
            operation swaps in a new immutable package).
        dataset: The city the package was built from -- needed for the
            nearest-POI recommendations and for GENERATE.
        profile: The group profile, used by GENERATE to keep new CIs
            personalized.
        item_index: Item vectors matching the profile schema.
        beta, gamma: Equation 1 CI-term weights for GENERATE.
        arrays: The :class:`~repro.core.arrays.CityArrays` bundle of
            ``dataset``; the nearest-POI recommendations read its
            ``ids``/``lats``/``lons`` columns and GENERATE scores
            against it.  Defaults to the pooled
            ``CityArrays.of(dataset, item_index)`` (the serving layers
            pass their per-city bundle).
    """

    package: TravelPackage
    dataset: POIDataset
    profile: GroupProfile
    item_index: ItemVectorIndex
    beta: float = 1.0
    gamma: float = 1.0
    arrays: CityArrays | None = None
    interactions: list[Interaction] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.arrays is None:
            self.arrays = CityArrays.of(self.dataset, self.item_index)

    def _nearest(self, lat: float, lon: float, k: int,
                 category: Category | str | None = None,
                 poi_type: str | None = None,
                 exclude: Collection[int] = ()) -> list[POI]:
        """The ``k`` dataset POIs nearest to ``(lat, lon)``, nearest
        first, ties broken by id; fewer when the filters leave fewer.

        One vectorized distance pass over the bundle's rows of
        ``category`` (every row when it is ``None``).  The ``poi_type``
        mask is built over ``dataset.by_category`` (or ``dataset``),
        which is row-aligned with those columns by construction.
        """
        if k <= 0:
            return []
        arrays = self.arrays
        if category is None:
            ids, rows, pois = arrays.ids, np.arange(len(arrays)), self.dataset
        else:
            ca = arrays.category(category)
            ids, rows = ca.ids, ca.rows
            pois = self.dataset.by_category(category)
        keep = ~np.isin(ids, list(exclude))
        if poi_type is not None:
            keep &= np.fromiter((p.type == poi_type for p in pois),
                                dtype=bool, count=len(ids))
        ids, rows = ids[keep], rows[keep]
        d = equirectangular_km(lat, lon, arrays.lats[rows], arrays.lons[rows])
        return [self.dataset[int(i)] for i in ids[np.lexsort((ids, d))[:k]]]

    # -- operators -------------------------------------------------------------

    def remove(self, ci_index: int, poi_id: int, actor: int | None = None) -> POI:
        """``REMOVE(i, CI)``: drop ``poi_id`` from the CI.

        Returns the removed POI.
        """
        ci = self.package[ci_index]
        removed = next(p for p in ci.pois if p.id == poi_id)
        self.package = self.package.with_composite_item(ci_index, ci.without(poi_id))
        self.interactions.append(Interaction(
            InteractionKind.REMOVE, removed=(removed,), ci_index=ci_index,
            actor=actor,
        ))
        return removed

    def suggest_additions(self, ci_index: int, k: int = 5,
                          category: Category | str | None = None,
                          poi_type: str | None = None) -> list[POI]:
        """Candidates for ``ADD``: the closest POIs to the CI's centroid
        matching the user's filter, excluding current members."""
        ci = self.package[ci_index]
        lat, lon = ci.centroid
        return self._nearest(lat, lon, k, category=category,
                             poi_type=poi_type, exclude=ci.poi_ids)

    def add(self, ci_index: int, poi: POI, actor: int | None = None) -> None:
        """``ADD(i, CI)``: insert ``poi`` into the CI."""
        ci = self.package[ci_index]
        self.package = self.package.with_composite_item(ci_index, ci.adding(poi))
        self.interactions.append(Interaction(
            InteractionKind.ADD, added=(poi,), ci_index=ci_index, actor=actor,
        ))

    def recommend_replacement(self, ci_index: int, poi_id: int) -> POI | None:
        """The system's REPLACE recommendation: the geographically
        closest POI of the same category not already in the CI."""
        ci = self.package[ci_index]
        current = next(p for p in ci.pois if p.id == poi_id)
        matches = self._nearest(current.lat, current.lon, 1,
                                category=current.cat, exclude=ci.poi_ids)
        return matches[0] if matches else None

    def replace(self, ci_index: int, poi_id: int,
                replacement: POI | None = None,
                actor: int | None = None) -> POI:
        """``REPLACE(i, CI)``: swap a POI for ``replacement`` (defaults
        to the system recommendation).  Returns the new POI."""
        if replacement is None:
            replacement = self.recommend_replacement(ci_index, poi_id)
            if replacement is None:
                raise ValueError(
                    f"no same-category replacement available for POI {poi_id}"
                )
        ci = self.package[ci_index]
        removed = next(p for p in ci.pois if p.id == poi_id)
        self.package = self.package.with_composite_item(
            ci_index, ci.replacing(poi_id, replacement)
        )
        self.interactions.append(Interaction(
            InteractionKind.REPLACE, added=(replacement,), removed=(removed,),
            ci_index=ci_index, actor=actor,
        ))
        return replacement

    def generate(self, rect: Rectangle, query: GroupQuery | None = None,
                 actor: int | None = None) -> int:
        """``GENERATE(RECTANGLE)``: build a new valid, cohesive CI
        centred in ``rect`` and append it to the package.

        Returns the new CI's index.  The new CI's POIs are logged as
        additions: sweeping out an area is an explicit statement of
        interest in what the system picks there.
        """
        q = query or self.package.query
        if q is None:
            raise ValueError("GENERATE needs a query (none stored on the package)")
        rows = assemble_composite_items(
            self.dataset, [rect.center], q, self.profile, self.item_index,
            beta=self.beta, gamma=self.gamma, arrays=self.arrays,
        )
        (ci,) = composite_items(self.dataset, self.arrays, [rect.center],
                                rows)
        self.package = self.package.appending(ci)
        new_index = self.package.k - 1
        self.interactions.append(Interaction(
            InteractionKind.GENERATE, added=tuple(ci.pois), ci_index=new_index,
            actor=actor,
        ))
        return new_index

    def delete_composite_item(self, ci_index: int, actor: int | None = None) -> None:
        """Delete a whole CI by iteratively removing its POIs (the
        paper's reading of CI deletion), then dropping the empty CI."""
        ci = self.package[ci_index]
        for poi in list(ci.pois):
            self.remove(ci_index, poi.id, actor=actor)
        self.package = self.package.without_composite_item(ci_index)

    # -- log views ------------------------------------------------------------

    def added_pois(self, actor: int | None = None) -> list[POI]:
        """All added POIs (``I+``), optionally for one member only."""
        return [p for it in self.interactions
                if actor is None or it.actor == actor
                for p in it.added]

    def removed_pois(self, actor: int | None = None) -> list[POI]:
        """All removed POIs (``I-``), optionally for one member only."""
        return [p for it in self.interactions
                if actor is None or it.actor == actor
                for p in it.removed]

    def actors(self) -> list[int]:
        """Distinct member indices that performed at least one operation."""
        return sorted({it.actor for it in self.interactions if it.actor is not None})

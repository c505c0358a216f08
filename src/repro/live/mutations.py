"""Typed, replayable city mutations: the change-data-capture layer.

Production POI data is not frozen -- venues close, prices change, new
POIs open -- yet everything downstream of a :class:`~repro.data.dataset.
POIDataset` (CityArrays, the package cache, customization sessions, the
asset store) is built on immutability.  ``repro.live`` reconciles the
two: datasets stay immutable values, and *change* is modelled as a
stream of small, validated, JSON-round-trippable mutation records that
produce the **next** immutable dataset.

Three mutation kinds cover the churn the serving stack must survive:

* :class:`ClosePoi` -- a venue shuts down and leaves the pool;
* :class:`RepricePoi` -- a venue's cost changes (the budget-repair
  phase and cost-sorted candidate orders depend on it);
* :class:`AddPoi` -- a new venue opens (carries the full
  :class:`~repro.data.poi.POI` record).

Each record validates against the dataset it is about to mutate
(:meth:`Mutation.validate`) and applies purely
(:meth:`Mutation.apply` returns a *new* dataset, preserving insertion
order so array row alignment stays deterministic).  ``apply`` derives
the next dataset from the previous one's indexes -- a C-level ``dict``
copy and one rebuilt category tuple -- so a record replays without a
Python walk over the whole city.

Only a reprice keeps the city's rows: the same POIs in the same order
at the same coordinates with the same item vectors
(:attr:`Mutation.prices_only`).  A build without a budget never reads a
cost, so serving state derived before a run of reprices stays valid
after it; a close or an add moves rows and geometry and forces a
rebuild.  The per-city
:class:`MutationLog` is bounded and append-only: replaying its entries
over the original base dataset deterministically reproduces the current
one, which is what makes epoch-versioned serving state auditable and
lets any replica rebuild a mutated city from ``(base, log)`` alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import ClassVar

from repro.data.dataset import POIDataset
from repro.data.poi import POI, Category

__all__ = [
    "AddPoi",
    "ClosePoi",
    "Mutation",
    "MutationError",
    "MutationLog",
    "RepricePoi",
    "mutation_from_dict",
]


class MutationError(ValueError):
    """A mutation record is malformed or does not apply to the dataset."""


@dataclass(frozen=True)
class Mutation:
    """Base class for the typed mutation records.

    Subclasses set ``kind`` (the wire discriminator), validate against a
    concrete dataset, and apply purely: ``apply`` returns a **new**
    :class:`POIDataset` and never touches the input.
    """

    #: Wire discriminator; the ``kind`` field of the JSON form.
    kind: ClassVar[str] = ""
    #: Whether the mutation changes costs only, keeping every POI id,
    #: row, coordinate and item vector (a reprice); a close or an add
    #: changes the rows.
    prices_only: ClassVar[bool] = False

    def validate(self, dataset: POIDataset) -> None:
        """Raise :class:`MutationError` unless this applies to ``dataset``."""
        raise NotImplementedError

    def apply(self, dataset: POIDataset) -> POIDataset:
        """Return the mutated dataset (validates first), derived from
        ``dataset``'s indexes in O(n) C-level copying plus O(category)
        Python work."""
        raise NotImplementedError

    def category(self, dataset: POIDataset) -> Category:
        """The single category whose columns this mutation touches."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """The JSON-able wire form (``{"kind": ..., ...}``)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ClosePoi(Mutation):
    """A venue closed: remove ``poi_id`` from the city."""

    poi_id: int
    kind: ClassVar[str] = "close_poi"

    def validate(self, dataset: POIDataset) -> None:
        if self.poi_id not in dataset:
            raise MutationError(
                f"close_poi: POI {self.poi_id} is not in {dataset.city!r}"
            )
        if len(dataset) <= 1:
            # The registry refuses empty datasets; a city must keep at
            # least one POI to stay servable.
            raise MutationError(
                f"close_poi: cannot remove the last POI of {dataset.city!r}"
            )

    def apply(self, dataset: POIDataset) -> POIDataset:
        self.validate(dataset)
        return dataset.without_poi(self.poi_id)

    def category(self, dataset: POIDataset) -> Category:
        return dataset[self.poi_id].cat

    def to_dict(self) -> dict:
        return {"kind": self.kind, "poi_id": self.poi_id}


@dataclass(frozen=True)
class RepricePoi(Mutation):
    """A venue's cost changed: set ``poi_id``'s cost to ``cost``."""

    poi_id: int
    cost: float
    kind: ClassVar[str] = "reprice_poi"
    prices_only: ClassVar[bool] = True

    def __post_init__(self) -> None:
        cost = float(self.cost)
        if not math.isfinite(cost) or cost < 0.0:
            raise MutationError(
                f"reprice_poi: cost must be finite and >= 0, got {self.cost!r}"
            )
        object.__setattr__(self, "cost", cost)

    def validate(self, dataset: POIDataset) -> None:
        if self.poi_id not in dataset:
            raise MutationError(
                f"reprice_poi: POI {self.poi_id} is not in {dataset.city!r}"
            )

    def apply(self, dataset: POIDataset) -> POIDataset:
        self.validate(dataset)
        return dataset.repriced(self.poi_id, self.cost)

    def category(self, dataset: POIDataset) -> Category:
        return dataset[self.poi_id].cat

    def to_dict(self) -> dict:
        return {"kind": self.kind, "poi_id": self.poi_id, "cost": self.cost}


@dataclass(frozen=True)
class AddPoi(Mutation):
    """A new venue opened: append ``poi`` to the city."""

    poi: POI
    kind: ClassVar[str] = "add_poi"

    def validate(self, dataset: POIDataset) -> None:
        if self.poi.id in dataset:
            raise MutationError(
                f"add_poi: POI id {self.poi.id} already exists in "
                f"{dataset.city!r}"
            )

    def apply(self, dataset: POIDataset) -> POIDataset:
        self.validate(dataset)
        return dataset.with_poi(self.poi)

    def category(self, dataset: POIDataset) -> Category:
        return self.poi.cat

    def to_dict(self) -> dict:
        return {"kind": self.kind, "poi": self.poi.to_dict()}


#: kind -> concrete mutation class, for the wire decoder.
_KINDS: dict[str, type[Mutation]] = {
    cls.kind: cls for cls in (ClosePoi, RepricePoi, AddPoi)
}


def mutation_from_dict(data: dict) -> Mutation:
    """Decode the wire form produced by :meth:`Mutation.to_dict`.

    Raises :class:`MutationError` on unknown kinds or malformed fields,
    so the wire layer classifies bad mutations as ``invalid`` requests.
    """
    if not isinstance(data, dict):
        raise MutationError(f"mutation must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise MutationError(
            f"unknown mutation kind {kind!r} (expected one of "
            f"{sorted(_KINDS)})"
        )
    try:
        if cls is ClosePoi:
            return ClosePoi(poi_id=int(data["poi_id"]))
        if cls is RepricePoi:
            return RepricePoi(poi_id=int(data["poi_id"]),
                              cost=float(data["cost"]))
        return AddPoi(poi=POI.from_dict(data["poi"]))
    except MutationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MutationError(f"malformed {kind} mutation: {exc}") from exc


class MutationLog:
    """A bounded, append-only per-city mutation journal.

    ``capacity`` caps the *total* number of appends over the log's
    lifetime -- it is not a ring buffer, because dropping a prefix would
    break :meth:`replay`'s deterministic base-to-current guarantee.
    A full log refuses further mutations (the operator re-registers the
    city to compact: the current dataset becomes the new base).
    """

    def __init__(self, city: str, capacity: int = 1024,
                 entries: Iterable[Mutation] = ()) -> None:
        if capacity < 1:
            raise ValueError("MutationLog capacity must be >= 1")
        self.city = city
        self.capacity = int(capacity)
        self._entries: list[Mutation] = list(entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[Mutation, ...]:
        return tuple(self._entries)

    def raise_if_full(self) -> None:
        """Raise :class:`MutationError` when the journal is at capacity.

        :meth:`append` enforces this too, but a caller with side
        effects between deciding to mutate and appending (e.g. the
        registry's in-place item-index extension and array patch)
        checks up front so a full log rejects before any work is done.
        """
        if len(self._entries) >= self.capacity:
            raise MutationError(
                f"mutation log for {self.city!r} is full "
                f"({self.capacity} entries); re-register the city to compact"
            )

    def append(self, mutation: Mutation) -> int:
        """Append one record; returns its 1-based sequence number."""
        self.raise_if_full()
        self._entries.append(mutation)
        return len(self._entries)

    def replay(self, base: POIDataset) -> POIDataset:
        """Apply every logged mutation, in order, to ``base``."""
        dataset = base
        for mutation in self._entries:
            dataset = mutation.apply(dataset)
        return dataset

    def to_dicts(self) -> list[dict]:
        """JSON-able form of the whole log."""
        return [m.to_dict() for m in self._entries]

    @classmethod
    def from_dicts(cls, city: str, records: list[dict],
                   capacity: int = 1024) -> "MutationLog":
        """Rebuild a log from :meth:`to_dicts` output."""
        log = cls(city, capacity=capacity)
        for record in records:
            log.append(mutation_from_dict(record))
        return log

"""Travel Packages (Section 3.2).

A Travel Package is a set of ``k`` Composite Items -- one per day of a
``k``-day trip in the paper's framing.  The package records the CIs'
anchoring centroids so the evaluation metrics (representativity) and the
customization operators can reason about the geometry of the package.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.core.arrays import CityArrays
from repro.core.composite import CompositeItem
from repro.core.query import GroupQuery
from repro.metrics.dimensions import (
    cohesiveness as _cohesiveness,
    personalization as _personalization,
    raw_cohesiveness_rows,
    raw_cohesiveness_sum as _raw_cohesiveness,
    representativity as _representativity,
)
from repro.metrics.similarity import cosine_rows
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex
from repro.reduction import ordered_sum


class TravelPackage:
    """An immutable set of Composite Items.

    Args:
        composite_items: The CIs forming the package.
        query: The query the package was built for (kept for validity
            checks after customization).
        rows: The ``(k, slots)`` city-bundle rows the CIs hold, in slot
            order, when the package comes straight from a KFC build
            (``None`` otherwise); :func:`bundle_metrics` reads them.
    """

    def __init__(self, composite_items: Iterable[CompositeItem],
                 query: GroupQuery | None = None,
                 rows: np.ndarray | None = None) -> None:
        self.composite_items: tuple[CompositeItem, ...] = tuple(composite_items)
        if not self.composite_items:
            raise ValueError("a travel package needs at least one Composite Item")
        self.query = query
        self.rows = rows

    def __len__(self) -> int:
        return len(self.composite_items)

    def __iter__(self) -> Iterator[CompositeItem]:
        return iter(self.composite_items)

    def __getitem__(self, index: int) -> CompositeItem:
        return self.composite_items[index]

    @property
    def k(self) -> int:
        """Number of Composite Items (days)."""
        return len(self.composite_items)

    def centroids(self) -> np.ndarray:
        """``(k, 2)`` array of CI centroids."""
        return np.array([ci.centroid for ci in self.composite_items])

    def all_pois(self) -> list:
        """Every POI across the CIs (with repeats if a POI is shared)."""
        return [p for ci in self.composite_items for p in ci.pois]

    def is_valid(self, query: GroupQuery | None = None) -> bool:
        """Whether every CI is valid for ``query`` (defaults to the
        package's own query)."""
        q = query or self.query
        if q is None:
            raise ValueError("no query given and the package stores none")
        return all(ci.is_valid(q) for ci in self.composite_items)

    # -- metric conveniences (Section 4.2) -----------------------------------

    def representativity(self) -> float:
        """Equation 2 over this package's centroids."""
        return _representativity(self.centroids())

    def raw_cohesiveness_sum(self) -> float:
        """Total within-CI pairwise distance (Equation 3's inner sum)."""
        return _raw_cohesiveness([ci.pois for ci in self.composite_items])

    def cohesiveness(self, s_constant: float) -> float:
        """Equation 3 with the sweep's ``S`` constant."""
        return _cohesiveness([ci.pois for ci in self.composite_items], s_constant)

    def personalization(self, profile: GroupProfile,
                        item_index: ItemVectorIndex) -> float:
        """Equation 4 against a group profile."""
        return _personalization(
            [ci.pois for ci in self.composite_items], profile, item_index
        )

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization (the service wire
        format)."""
        return {
            "composite_items": [ci.to_dict() for ci in self.composite_items],
            "query": self.query.to_dict() if self.query is not None else None,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, spliced from the CIs'
        :meth:`~repro.core.composite.CompositeItem.to_json` texts."""
        query = ("null" if self.query is None
                 else json.dumps(self.query.to_dict()))
        return ('{"composite_items": ['
                + ", ".join([ci.to_json() for ci in self.composite_items])
                + '], "query": ' + query + "}")

    @classmethod
    def from_dict(cls, data: dict) -> "TravelPackage":
        """Inverse of :meth:`to_dict`."""
        query = data.get("query")
        return cls(
            (CompositeItem.from_dict(d) for d in data["composite_items"]),
            query=GroupQuery.from_dict(query) if query is not None else None,
        )

    # -- functional updates ----------------------------------------------------

    def with_composite_item(self, index: int, ci: CompositeItem) -> "TravelPackage":
        """A new package with the ``index``-th CI replaced."""
        cis = list(self.composite_items)
        cis[index] = ci
        return TravelPackage(cis, query=self.query)

    def appending(self, ci: CompositeItem) -> "TravelPackage":
        """A new package with one extra CI (the ``GENERATE`` operator)."""
        return TravelPackage((*self.composite_items, ci), query=self.query)

    def without_composite_item(self, index: int) -> "TravelPackage":
        """A new package lacking the ``index``-th CI (CI deletion)."""
        cis = [ci for i, ci in enumerate(self.composite_items) if i != index]
        return TravelPackage(cis, query=self.query)

    def __repr__(self) -> str:
        return f"TravelPackage(k={self.k}, query={self.query})"


def bundle_metrics(package: TravelPackage, arrays: CityArrays,
                   profile: GroupProfile) -> tuple[bool, float, float]:
    """``(package.is_valid(), package.raw_cohesiveness_sum(),
    package.personalization(profile, item_index))`` bit for bit, read
    from the rows of ``arrays`` (the bundle the package was built
    against) that ``package.rows`` names, instead of the POI objects.

    The rows must be laid out as a KFC build lays them out: slots
    follow the query's requested categories, ``count`` slots each, so
    every category count is the query's and validity is the budget
    test.  Costs and cosine terms are added CI by CI, member by member,
    as the object path adds them.

    Raises:
        ValueError: The rows are not laid out for the package's query
            (a slot count differs, or a row is not in its slot's
            category).
    """
    rows, query = package.rows, package.query
    costs, terms = [], []
    start = 0
    for cat, count in zip(query.requested_categories(),
                          query.requested_counts()):
        stop = start + count
        block = rows[:, start:stop]
        ca = arrays.categories[cat]
        at = ca.rows.searchsorted(block)
        if (stop > rows.shape[1] or not len(ca)
                or not (ca.rows.take(at, mode="clip") == block).all()):
            raise ValueError(f"package rows are not laid out for its query "
                             f"(slots {start}-{stop - 1}: {cat.value})")
        costs.append(ca.costs[at])
        terms.append(cosine_rows(ca.vectors[at.ravel()],
                                 profile.vector(cat)).reshape(at.shape))
        start = stop
    if start != rows.shape[1]:
        raise ValueError(f"package rows hold {rows.shape[1]} slots, its "
                         f"query {start}")
    valid = all(ordered_sum(ci) <= query.budget
                for ci in np.hstack(costs).tolist())
    return (valid,
            raw_cohesiveness_rows(arrays.lats[rows], arrays.lons[rows]),
            ordered_sum(np.hstack(terms).ravel().tolist()))


def package_from_pois(groups_of_pois: Sequence[Sequence], query: GroupQuery | None = None) -> TravelPackage:
    """Convenience: build a package from raw POI lists (tests, baselines)."""
    return TravelPackage(
        (CompositeItem(pois) for pois in groups_of_pois), query=query
    )

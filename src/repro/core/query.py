"""Group queries (Section 3.1).

A query ``q = <#c1, ..., #cm, B>`` dictates what a valid Composite Item
looks like: how many POIs of each category it contains and the total
budget it may spend.  The paper's running example is
``<1 acco, 1 trans, 1 rest, 3 attr, $100>``; its experiments use the
same category counts with an infinite budget.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.data.poi import CATEGORIES, Category


@dataclass(frozen=True)
class GroupQuery:
    """A Composite-Item specification.

    Attributes:
        counts: Required number of POIs per category.  Categories absent
            from the mapping require zero POIs.
        budget: Maximum total ``cost`` of a CI (``math.inf`` = no limit).
    """

    counts: Mapping[Category, int] = field(default_factory=dict)
    budget: float = math.inf

    def __post_init__(self) -> None:
        normalized: dict[Category, int] = {}
        for cat, count in self.counts.items():
            cat = Category.parse(cat)
            if count < 0:
                raise ValueError(f"count for {cat} must be non-negative")
            normalized[cat] = int(count)
        object.__setattr__(self, "counts", normalized)
        self._check()

    def _check(self) -> None:
        # "not >=", not "< 0": NaN fails every comparison, so "< 0"
        # would admit it, and has_budget (false for NaN) would then
        # skip the budget repair.
        if not self.budget >= 0:
            raise ValueError(
                f"budget must be non-negative, got {self.budget!r}")
        if self.total_items() == 0:
            raise ValueError("a query must request at least one POI")
        # Derived once per query, not per assembly round or cache
        # lookup; plain attributes, so equality still reads the fields
        # only.
        requested = tuple(c for c in CATEGORIES if self.counts.get(c, 0) > 0)
        object.__setattr__(self, "_requested", requested)
        object.__setattr__(self, "_requested_counts",
                           tuple(self.counts[c] for c in requested))
        object.__setattr__(self, "_key", (
            tuple(sorted((cat.value, n) for cat, n in self.counts.items())),
            self.budget if math.isfinite(self.budget) else None,
        ))

    @classmethod
    def of(cls, acco: int = 0, trans: int = 0, rest: int = 0, attr: int = 0,
           budget: float = math.inf) -> "GroupQuery":
        """Keyword-friendly constructor:
        ``GroupQuery.of(acco=1, trans=1, rest=1, attr=3, budget=100)``."""
        return cls(counts={
            Category.ACCOMMODATION: acco,
            Category.TRANSPORTATION: trans,
            Category.RESTAURANT: rest,
            Category.ATTRACTION: attr,
        }, budget=budget)

    def count(self, category: Category | str) -> int:
        """Required POIs of one category (0 if unrequested)."""
        return self.counts.get(Category.parse(category), 0)

    def total_items(self) -> int:
        """Total POIs a valid CI contains."""
        return sum(self.counts.values())

    @property
    def has_budget(self) -> bool:
        """Whether the budget constraint is finite."""
        return math.isfinite(self.budget)

    def requested_categories(self) -> tuple[Category, ...]:
        """Categories with a positive count, in canonical order."""
        return self._requested

    def requested_counts(self) -> tuple[int, ...]:
        """The counts of :meth:`requested_categories`, in that order."""
        return self._requested_counts

    def key(self) -> tuple:
        """The query's part of a package cache key: its ``(category,
        count)`` pairs sorted by category name, and the budget (``None``
        when infinite).  Equal queries share it whatever their counts'
        order."""
        return self._key

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization.  An infinite budget
        (JSON has no ``inf``) is encoded as ``None``."""
        return {
            "counts": {cat.value: n for cat, n in self.counts.items()},
            "budget": self.budget if self.has_budget else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GroupQuery":
        """Inverse of :meth:`to_dict`."""
        budget = data.get("budget")
        counts = {Category.parse(cat): int(n)
                  for cat, n in data["counts"].items()}
        # Built without __post_init__, which would parse every key again.
        query = object.__new__(cls)
        object.__setattr__(query, "counts", counts)
        object.__setattr__(query, "budget",
                           math.inf if budget is None else float(budget))
        for cat, count in counts.items():
            if count < 0:
                raise ValueError(f"count for {cat} must be non-negative")
        query._check()
        return query

    def __str__(self) -> str:
        parts = [f"{n} {cat.value}" for cat in CATEGORIES
                 if (n := self.count(cat)) > 0]
        budget = "inf" if not self.has_budget else f"${self.budget:g}"
        return f"<{', '.join(parts)}, {budget}>"


#: The experiments' default query: ⟨1 acco, 1 trans, 1 rest, 3 attr⟩,
#: infinite budget (Section 4.3.1).
DEFAULT_QUERY = GroupQuery.of(acco=1, trans=1, rest=1, attr=3)

"""The profile schema: a shared coordinate system for preferences.

User profiles, group profiles and item vectors must all live in the same
per-category vector spaces for the cosine similarities of Equations 1
and 4 to make sense.  ``ProfileSchema`` pins those spaces down: for each
category it records an ordered tuple of *dimension labels* --

* the POI types for accommodation and transportation (well-defined,
  Section 2.2), and
* the LDA topic labels for restaurants and attractions.

A schema is typically derived from a fitted
:class:`~repro.profiles.vectors.ItemVectorIndex`, guaranteeing item and
profile vectors agree.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.data.poi import CATEGORIES, Category
from repro.data.taxonomy import types_for


@dataclass(frozen=True)
class ProfileSchema:
    """Dimension labels per category.

    Attributes:
        dimensions: Mapping from category to its ordered dimension
            labels.  All four categories must be present.
    """

    dimensions: dict[Category, tuple[str, ...]]

    def __post_init__(self) -> None:
        missing = [c for c in CATEGORIES if c not in self.dimensions]
        if missing:
            raise ValueError(f"schema is missing categories: {missing}")
        for cat, labels in self.dimensions.items():
            if len(labels) == 0:
                raise ValueError(f"category {cat} has no dimensions")

    def size(self, category: Category | str) -> int:
        """Number of dimensions for one category."""
        return len(self.dimensions[Category.parse(category)])

    def labels(self, category: Category | str) -> tuple[str, ...]:
        """Ordered dimension labels for one category."""
        return self.dimensions[Category.parse(category)]

    def total_size(self) -> int:
        """Total dimensions across the four categories (for concatenated
        vectors, e.g. the uniformity computation)."""
        return sum(len(v) for v in self.dimensions.values())

    @cached_property
    def category_slices(self) -> tuple[slice, ...]:
        """Each category's columns in a concatenated vector, in
        canonical category order (a group's ``(size, D)`` member
        matrix is cut along these)."""
        bounds = [0]
        for cat in CATEGORIES:
            bounds.append(bounds[-1] + len(self.dimensions[cat]))
        return tuple(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization."""
        return {
            "dimensions": {cat.value: list(labels)
                           for cat, labels in self.dimensions.items()}
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileSchema":
        """Inverse of :meth:`to_dict`."""
        return cls(dimensions={
            Category.parse(cat): tuple(labels)
            for cat, labels in data["dimensions"].items()
        })

    @classmethod
    def with_topic_counts(cls, n_rest_topics: int, n_attr_topics: int) -> "ProfileSchema":
        """A schema using taxonomy types for acco/trans and anonymous
        topic slots for rest/attr (labels filled in once LDA is fitted)."""
        return cls(dimensions={
            Category.ACCOMMODATION: types_for(Category.ACCOMMODATION),
            Category.TRANSPORTATION: types_for(Category.TRANSPORTATION),
            Category.RESTAURANT: tuple(f"rest-topic-{i}" for i in range(n_rest_topics)),
            Category.ATTRACTION: tuple(f"attr-topic-{i}" for i in range(n_attr_topics)),
        })

    @classmethod
    def default(cls) -> "ProfileSchema":
        """The default schema: taxonomy types + 8 topics per modelled
        category (matching the taxonomy's 8 restaurant/attraction types)."""
        return cls.with_topic_counts(8, 8)


# -- shared profile wire format ------------------------------------------------
#
# User and group profiles serialize identically (schema + one vector per
# category); these helpers are the single definition of that format so
# the two classes cannot drift apart.

def profile_wire_dict(schema: ProfileSchema,
                      vectors: Mapping[Category, np.ndarray]) -> dict:
    """The wire form shared by user and group profiles.  The schema
    rides along so the profile is self-describing across a process
    boundary."""
    return {
        "schema": schema.to_dict(),
        "vectors": {cat.value: np.asarray(vectors[cat]).tolist()
                    for cat in CATEGORIES},
    }


def parse_profile_wire_dict(
    data: dict, schema: ProfileSchema | None = None,
) -> tuple[ProfileSchema, dict[Category, np.ndarray]]:
    """Inverse of :func:`profile_wire_dict`.

    Args:
        schema: Optional override; defaults to the schema embedded in
            ``data`` (pass a locally-fitted schema to re-anchor a wire
            profile to a live item index).
    """
    if schema is None:
        schema = ProfileSchema.from_dict(data["schema"])
    vectors = {
        Category.parse(cat): np.asarray(vec, dtype=float)
        for cat, vec in data["vectors"].items()
    }
    return schema, vectors

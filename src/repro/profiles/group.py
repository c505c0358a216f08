"""Groups of travelers and their aggregated profiles.

A :class:`Group` is an ordered collection of
:class:`~repro.profiles.user.UserProfile` members.  Applying a
:class:`~repro.profiles.consensus.ConsensusMethod` per category yields a
:class:`GroupProfile` -- structurally identical to a user profile (one
score vector per category) and consumed the same way by the objective
function's personalization term.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from repro.data.poi import CATEGORIES, Category
from repro.profiles.consensus import ConsensusMethod, consensus_scores
from repro.profiles.schema import (
    ProfileSchema,
    parse_profile_wire_dict,
    profile_wire_dict,
)
from repro.profiles.user import UserProfile


class GroupProfile:
    """A group's per-category consensus vectors.

    Structurally a user profile over the same schema, but scores may
    exceed the simplex (e.g. ``1 - d_j`` terms), so only the [0, 1]
    range is enforced via clipping on refinement, not construction.

    Immutable: the vectors are private copies that no method writes
    (refinement builds a new profile via :meth:`updated`), so values
    derived from them, such as :meth:`fingerprint`, are derived once.
    """

    def __init__(self, schema: ProfileSchema,
                 vectors: Mapping[Category, np.ndarray]) -> None:
        self.schema = schema
        self._vectors: dict[Category, np.ndarray] = {}
        for cat in CATEGORIES:
            if cat not in vectors:
                raise ValueError(f"group profile is missing category {cat}")
            vec = np.asarray(vectors[cat], dtype=float)
            if vec.shape != (schema.size(cat),):
                raise ValueError(
                    f"category {cat} vector has shape {vec.shape}, "
                    f"schema expects ({schema.size(cat)},)"
                )
            self._vectors[cat] = vec.copy()
        self._fingerprint: str | None = None

    @classmethod
    def from_members(cls, schema: ProfileSchema, members: np.ndarray,
                     method: ConsensusMethod | str = ConsensusMethod.AVERAGE,
                     w1: float | None = None) -> "GroupProfile":
        """One consensus method applied per category (Section 2.3) to a
        ``(size, D)`` matrix of concatenated member vectors, cut along
        :attr:`ProfileSchema.category_slices`.  Each slice is copied
        contiguous, the layout a per-category restack has, so the
        consensus reductions see the same memory order."""
        return cls(schema, {
            cat: consensus_scores(np.ascontiguousarray(members[:, columns]),
                                  method, w1=w1)
            for cat, columns in zip(CATEGORIES, schema.category_slices)
        })

    def vector(self, category: Category | str) -> np.ndarray:
        """The consensus vector for one category (a defensive copy)."""
        return self._vectors[Category.parse(category)].copy()

    def fingerprint(self) -> str:
        """A SHA-256 hex digest of the category names and vector bytes,
        in canonical order: profiles with equal vectors share it however
        they were built (consensus, refinement, the wire).  Computed on
        first use from the private vectors (already contiguous float64
        copies) and kept."""
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for cat in CATEGORIES:
                digest.update(cat.value.encode())
                digest.update(self._vectors[cat])
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def concatenated(self) -> np.ndarray:
        """All category vectors concatenated in canonical order."""
        return np.concatenate([self._vectors[cat] for cat in CATEGORIES])

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization (the shared profile
        wire format of :mod:`repro.profiles.schema`)."""
        return profile_wire_dict(self.schema, self._vectors)

    @classmethod
    def from_dict(cls, data: dict, schema: ProfileSchema | None = None) -> "GroupProfile":
        """Inverse of :meth:`to_dict`; ``schema`` optionally overrides
        the embedded one (to re-anchor to a live item index)."""
        return cls(*parse_profile_wire_dict(data, schema=schema))

    def updated(self, category: Category | str, vector: np.ndarray) -> "GroupProfile":
        """A new profile with one category vector replaced (used by the
        refinement strategies)."""
        cat = Category.parse(category)
        vectors = dict(self._vectors)
        vectors[cat] = np.asarray(vector, dtype=float)
        return GroupProfile(self.schema, vectors)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{cat.value}={np.round(self._vectors[cat], 3)}" for cat in CATEGORIES
        )
        return f"GroupProfile({parts})"


class Group:
    """An ordered group of travelers.

    Args:
        members: The member profiles; all must share one schema.
        name: Optional identifier for reports.
    """

    def __init__(self, members: Iterable[UserProfile], name: str = "") -> None:
        self.members: tuple[UserProfile, ...] = tuple(members)
        if not self.members:
            raise ValueError("a group needs at least one member")
        schema = self.members[0].schema
        for member in self.members[1:]:
            if member.schema is not schema and member.schema != schema:
                raise ValueError("all group members must share one profile schema")
        self.schema = schema
        self.name = name

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[UserProfile]:
        return iter(self.members)

    def member_matrix(self, category: Category | str) -> np.ndarray:
        """``(n_members, n_dims)`` score matrix for one category."""
        cat = Category.parse(category)
        return np.vstack([m.vector(cat) for m in self.members])

    def profile(self, method: ConsensusMethod | str = ConsensusMethod.AVERAGE,
                w1: float | None = None) -> GroupProfile:
        """Aggregate members into a group profile with one consensus
        method applied per category (Section 2.3)."""
        return GroupProfile.from_members(
            self.schema, np.vstack([m.concatenated() for m in self.members]),
            method, w1=w1,
        )

    def singleton(self, index: int) -> "Group":
        """A one-member group around the ``index``-th member (used for
        median-user travel packages, Section 4.3)."""
        return Group([self.members[index]], name=f"{self.name}[{index}]")

    def with_member(self, index: int, profile: UserProfile) -> "Group":
        """A new group with one member's profile replaced (used by the
        individual refinement strategy)."""
        members = list(self.members)
        members[index] = profile
        return Group(members, name=self.name)

    def __repr__(self) -> str:
        return f"Group(name={self.name!r}, size={len(self)})"

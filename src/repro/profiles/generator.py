"""Synthetic user-profile and group generation (Section 4.1 / 4.3.1).

The synthetic experiment draws user profiles "in an independent
roll-and-dice process" -- random preference values per dimension -- and
forms groups by size (small 5, medium 10, large 100) and *uniformity*:
uniform groups have average pairwise member cosine above 0.85,
non-uniform groups below 0.20.

Dense random vectors in the positive orthant almost never fall below
cosine 0.20 pairwise, so the non-uniform generator draws *sparse,
nearly-disjoint* preference supports (each member cares about one or
two dimensions per category).  That is the only way the paper's
threshold is satisfiable and matches its reading of non-uniform groups
as "members with diverse preferences"; see the README design notes.

A group is drawn as one ``(size, D)`` matrix of concatenated member
vectors (:meth:`GroupGenerator.member_matrix`); the group methods wrap
its rows into :class:`~repro.profiles.user.UserProfile` members.
"""

from __future__ import annotations

import numpy as np

from repro.data.poi import CATEGORIES
from repro.metrics.similarity import cosine
from repro.metrics.uniformity import matrix_uniformity
from repro.profiles.group import Group
from repro.profiles.schema import ProfileSchema
from repro.profiles.user import UserProfile
from repro.reduction import ordered_sum

#: Paper thresholds (Section 4.1).
UNIFORM_THRESHOLD = 0.85
NON_UNIFORM_THRESHOLD = 0.20

#: Paper group sizes (Section 4.1).
GROUP_SIZES: dict[str, int] = {"small": 5, "medium": 10, "large": 100}


class GroupGenerator:
    """Deterministic generator of users and groups over a schema.

    Args:
        schema: The profile coordinate system (shared with item vectors).
        seed: Seed for the internal generator; two generators with equal
            seeds produce identical users and groups.
    """

    def __init__(self, schema: ProfileSchema, seed: int = 0) -> None:
        self.schema = schema
        self._rng = np.random.default_rng(seed)

    # -- single users ---------------------------------------------------------

    def random_user(self) -> UserProfile:
        """A dense roll-and-dice profile: ratings ~ U[0, 5] per dimension,
        normalized per category (Section 4.3.1)."""
        ratings = {
            cat: self._rng.uniform(0.0, 5.0, size=self.schema.size(cat))
            for cat in CATEGORIES
        }
        return UserProfile.from_ratings(self.schema, ratings)

    def jittered_ratings(self, base: dict, jitter: float) -> dict:
        """Per-category ratings near ``base`` (uniform jitter, clipped).

        Also models *elicitation error*: a worker's stated ratings are a
        jittered observation of their true ones.
        """
        ratings = {}
        for cat in CATEGORIES:
            noise = self._rng.uniform(-jitter, jitter, size=self.schema.size(cat))
            ratings[cat] = np.clip(base[cat] + noise, 0.0, 5.0)
        return ratings

    def elicitation_ratings(self, true_ratings: dict, noise: float) -> dict:
        """Stated ratings as a noisy observation of true ones.

        People mis-estimate how much they like things they *do* like,
        but reliably give zero to types they have no interest in, so
        the noise only perturbs positive ratings.  This keeps sparse
        (concentrated-taste) profiles sparse through elicitation.
        """
        stated = {}
        for cat in CATEGORIES:
            base = np.asarray(true_ratings[cat], dtype=float)
            jitter = self._rng.uniform(-noise, noise, size=base.shape)
            stated[cat] = np.where(base > 0.0,
                                   np.clip(base + jitter, 0.0, 5.0), 0.0)
        return stated

    def random_base(self) -> dict:
        """A random per-category rating base: a taste archetype that
        :meth:`jittered_ratings` draws clustered raters around."""
        return {
            cat: self._rng.uniform(0.5, 5.0, size=self.schema.size(cat))
            for cat in CATEGORIES
        }

    def sparse_user(self, dims_per_category: int = 1) -> UserProfile:
        """A profile concentrated on a few random dimensions per category
        (the building block of non-uniform groups).

        With more than one dimension per category, the first pick is the
        member's *primary* taste (rated 4-5) and the rest are weak
        secondary interests (rated 1-2).  Secondary interests create the
        partial overlap real diverse groups have -- some common ground
        for a consensus function to find -- while keeping pairwise
        profile cosines low enough for the paper's non-uniform
        threshold.
        """
        return UserProfile.from_ratings(
            self.schema, self.sparse_ratings(dims_per_category)
        )

    def sparse_ratings(self, dims_per_category: int = 1) -> dict:
        """The rating dict behind :meth:`sparse_user` (exposed so a
        worker's true and stated profiles can share one draw)."""
        ratings = {}
        for cat in CATEGORIES:
            size = self.schema.size(cat)
            vec = np.zeros(size)
            count = min(dims_per_category, size)
            picks = self._rng.choice(size, size=count, replace=False)
            vec[picks[0]] = self._rng.uniform(4.0, 5.0)
            if count > 1:
                vec[picks[1:]] = self._rng.uniform(0.5, 1.5, size=count - 1)
            ratings[cat] = vec
        return ratings

    # -- groups -----------------------------------------------------------------

    def member_matrix(self, size: int, uniform: bool) -> np.ndarray:
        """A group's members as one ``(size, D)`` matrix of concatenated
        profile vectors (``D = schema.total_size()``), uniform or
        non-uniform.

        Every group method draws through this core; its rows are the
        members :meth:`group` wraps into profiles, and a service
        resolves a spec's consensus profile straight from the matrix
        (:meth:`GroupProfile.from_members
        <repro.profiles.group.GroupProfile.from_members>`).
        """
        if uniform:
            return self._uniform_members(size)
        return self._non_uniform_members(size)

    def _uniform_members(self, size: int, max_attempts: int = 50) -> np.ndarray:
        """Members sharing a random base taste with small jitter,
        retried with shrinking jitter until the group's uniformity is
        above :data:`UNIFORM_THRESHOLD`.

        One draw for the base and one ``(size, D)`` draw for the
        jitter: the same values, in the same order, as per-category
        draws member by member.
        """
        dim = self.schema.total_size()
        jitter = 0.8
        for _ in range(max_attempts):
            base = self._rng.uniform(0.5, 5.0, size=dim)
            noise = self._rng.uniform(-jitter, jitter, size=(size, dim))
            members = self._normalized(np.clip(base + noise, 0.0, 5.0))
            if matrix_uniformity(members) > UNIFORM_THRESHOLD:
                return members
            jitter *= 0.6
        raise RuntimeError(
            f"could not generate a uniform group of size {size} in "
            f"{max_attempts} attempts"
        )

    def _normalized(self, ratings: np.ndarray) -> np.ndarray:
        """Rows of 0-5 ratings normalized by each category's rating sum
        (all-zero categories stay zero), as
        :meth:`UserProfile.from_ratings
        <repro.profiles.user.UserProfile.from_ratings>` does per member."""
        scores = np.zeros_like(ratings)
        for columns in self.schema.category_slices:
            raw = ratings[:, columns]
            totals = raw.sum(axis=1)[:, None]
            np.divide(raw, totals, out=scores[:, columns], where=totals > 0)
        return scores

    def _non_uniform_members(self, size: int,
                             max_attempts: int = 200) -> np.ndarray:
        """Members with sparse nearly-disjoint supports, admitted while
        the group's average pairwise cosine stays under
        :data:`NON_UNIFORM_THRESHOLD` (with a 5% margin).

        The pair cosines are cached and the running average is
        recomputed only when a member is admitted, adding them in
        ``(i < j)`` row-major order.
        """
        members = np.zeros((size, self.schema.total_size()))
        pair_cosines: list[list[float]] = []  # row i: cos(i, j) for j > i
        current = 0.0
        n = attempts = 0
        while n < size:
            candidate = self._sparse_member()
            attempts += 1
            if attempts > max_attempts * size:
                raise RuntimeError(
                    f"could not generate a non-uniform group of size {size}"
                )
            cos_to_members = [cosine(candidate, members[i]) for i in range(n)]
            if n:
                pairs_before = n * (n - 1) / 2.0
                new_avg = ((current * pairs_before
                            + ordered_sum(cos_to_members))
                           / (pairs_before + n))
                if new_avg >= NON_UNIFORM_THRESHOLD * 0.95:
                    continue
            # cosine is symmetric, so cos(candidate, i) is pair (i, n).
            for row, value in zip(pair_cosines, cos_to_members):
                row.append(value)
            pair_cosines.append([])
            members[n] = candidate
            n += 1
            if n > 1:
                current = (ordered_sum(value for row in pair_cosines
                                       for value in row)
                           / (n * (n - 1) / 2.0))
        return members

    def _sparse_member(self) -> np.ndarray:
        """One concatenated :meth:`sparse_user` vector, one dimension
        per category."""
        ratings = self.sparse_ratings(dims_per_category=1)
        return self._normalized(
            np.concatenate([ratings[cat] for cat in CATEGORIES])[None, :])[0]

    def _group(self, members: np.ndarray, name: str) -> Group:
        """Wrap member-matrix rows into a :class:`Group` of profiles."""
        slices = self.schema.category_slices
        return Group(
            (UserProfile(self.schema, {cat: row[columns] for cat, columns
                                       in zip(CATEGORIES, slices)})
             for row in members),
            name=name,
        )

    def uniform_group(self, size: int, name: str = "",
                      max_attempts: int = 50) -> Group:
        """A group with uniformity above :data:`UNIFORM_THRESHOLD`.

        Members share a random base taste with small jitter.  Retries
        with shrinking jitter until the threshold is met.
        """
        return self._group(self._uniform_members(size, max_attempts),
                           name or f"uniform-{size}")

    def non_uniform_group(self, size: int, name: str = "",
                          max_attempts: int = 200) -> Group:
        """A group with uniformity below :data:`NON_UNIFORM_THRESHOLD`.

        Members get sparse nearly-disjoint supports; candidate members
        whose taste overlaps the group too much are re-rolled.
        """
        return self._group(self._non_uniform_members(size, max_attempts),
                           name or f"non-uniform-{size}")

    def group(self, size: int, uniform: bool, name: str = "") -> Group:
        """Dispatch to :meth:`uniform_group` / :meth:`non_uniform_group`."""
        if uniform:
            return self.uniform_group(size, name=name)
        return self.non_uniform_group(size, name=name)


def median_user_index(group: Group) -> int:
    """Index of the group's *median user* (Section 4.3.3).

    The median user is the member whose summed cosine similarity to all
    other members is highest -- the person closest to the group's
    centre of taste.
    """
    vectors = [m.concatenated() for m in group.members]
    n = len(vectors)
    if n == 1:
        return 0
    best_index = 0
    best_score = -np.inf
    for i in range(n):
        score = ordered_sum(cosine(vectors[i], vectors[j])
                            for j in range(n) if j != i)
        if score > best_score:
            best_score = score
            best_index = i
    return best_index

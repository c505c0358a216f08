"""The per-member group generator, kept as a test oracle.

``repro.profiles.generator`` draws a group as one ``(size, D)`` member
matrix and ``repro.service.registry`` resolves a spec's consensus
profile from that matrix's category slices.  This module is the
reference both must match bit for bit: the former
``GroupGenerator.uniform_group`` / ``non_uniform_group`` (one
``UserProfile`` per member, per-category draws, the running pair
average recomputed for every candidate with builtin ``sum``), the
former ``group_uniformity`` and the former ``Group.profile`` (one
restacked member matrix per category).  The bodies are verbatim, with
``self`` renamed ``gen``.
"""

from __future__ import annotations

import numpy as np

from repro.data.poi import CATEGORIES, Category
from repro.metrics.similarity import cosine, cosine_matrix
from repro.profiles.consensus import ConsensusMethod, consensus_scores
from repro.profiles.generator import NON_UNIFORM_THRESHOLD, UNIFORM_THRESHOLD
from repro.profiles.group import Group, GroupProfile
from repro.profiles.schema import ProfileSchema
from repro.profiles.user import UserProfile


class Generator:
    """The former generator's state: a schema and one seeded RNG."""

    def __init__(self, schema: ProfileSchema, seed: int = 0) -> None:
        self.schema = schema
        self._rng = np.random.default_rng(seed)


def group_uniformity(group: Group) -> float:
    """Average pairwise member cosine; 1.0 for singleton groups."""
    vectors = np.vstack([m.concatenated() for m in group.members])
    n = len(vectors)
    if n < 2:
        return 1.0
    sims = cosine_matrix(vectors)
    upper = sims[np.triu_indices(n, k=1)]
    return float(upper.mean())


def jittered_ratings(gen: Generator, base: dict, jitter: float) -> dict:
    ratings = {}
    for cat in CATEGORIES:
        noise = gen._rng.uniform(-jitter, jitter, size=gen.schema.size(cat))
        ratings[cat] = np.clip(base[cat] + noise, 0.0, 5.0)
    return ratings


def _jittered_user(gen: Generator, base: dict, jitter: float) -> UserProfile:
    return UserProfile.from_ratings(gen.schema,
                                    jittered_ratings(gen, base, jitter))


def sparse_ratings(gen: Generator, dims_per_category: int = 1) -> dict:
    ratings = {}
    for cat in CATEGORIES:
        size = gen.schema.size(cat)
        vec = np.zeros(size)
        count = min(dims_per_category, size)
        picks = gen._rng.choice(size, size=count, replace=False)
        vec[picks[0]] = gen._rng.uniform(4.0, 5.0)
        if count > 1:
            vec[picks[1:]] = gen._rng.uniform(0.5, 1.5, size=count - 1)
        ratings[cat] = vec
    return ratings


def sparse_user(gen: Generator, dims_per_category: int = 1) -> UserProfile:
    return UserProfile.from_ratings(
        gen.schema, sparse_ratings(gen, dims_per_category)
    )


def uniform_group(gen: Generator, size: int, name: str = "",
                  max_attempts: int = 50) -> Group:
    jitter = 0.8
    for _ in range(max_attempts):
        base = {
            cat: gen._rng.uniform(0.5, 5.0, size=gen.schema.size(cat))
            for cat in CATEGORIES
        }
        members = [_jittered_user(gen, base, jitter) for _ in range(size)]
        group = Group(members, name=name or f"uniform-{size}")
        if group_uniformity(group) > UNIFORM_THRESHOLD:
            return group
        jitter *= 0.6
    raise RuntimeError(
        f"could not generate a uniform group of size {size} in "
        f"{max_attempts} attempts"
    )


def non_uniform_group(gen: Generator, size: int, name: str = "",
                      max_attempts: int = 200) -> Group:
    members: list[UserProfile] = []
    attempts = 0
    while len(members) < size:
        candidate = sparse_user(gen, dims_per_category=1)
        attempts += 1
        if attempts > max_attempts * size:
            raise RuntimeError(
                f"could not generate a non-uniform group of size {size}"
            )
        # Greedy admission: keep the candidate only if the running
        # average pairwise cosine stays under the threshold.
        if members:
            cos_to_members = [
                cosine(candidate.concatenated(), m.concatenated())
                for m in members
            ]
            n = len(members)
            pairs_before = n * (n - 1) / 2.0
            current = _average_pairwise(members)
            new_avg = ((current * pairs_before + sum(cos_to_members))
                       / (pairs_before + n))
            if new_avg >= NON_UNIFORM_THRESHOLD * 0.95:
                continue
        members.append(candidate)
    return Group(members, name=name or f"non-uniform-{size}")


def group(gen: Generator, size: int, uniform: bool, name: str = "") -> Group:
    if uniform:
        return uniform_group(gen, size, name=name)
    return non_uniform_group(gen, size, name=name)


def _average_pairwise(members: list[UserProfile]) -> float:
    n = len(members)
    if n < 2:
        return 0.0
    vectors = [m.concatenated() for m in members]
    total = sum(
        cosine(vectors[i], vectors[j])
        for i in range(n) for j in range(i + 1, n)
    )
    return total / (n * (n - 1) / 2.0)


def member_matrix(members, category: Category | str) -> np.ndarray:
    cat = Category.parse(category)
    return np.vstack([m.vector(cat) for m in members])


def profile(grp: Group, method: ConsensusMethod | str = ConsensusMethod.AVERAGE,
            w1: float | None = None) -> GroupProfile:
    """The former ``Group.profile``: one restacked matrix per category."""
    vectors = {
        cat: consensus_scores(member_matrix(grp.members, cat), method, w1=w1)
        for cat in CATEGORIES
    }
    return GroupProfile(grp.schema, vectors)


def spec_profile(schema: ProfileSchema, size: int, uniform: bool, seed: int,
                 method: str, w1: float | None) -> GroupProfile:
    """The former ``CityRegistry.group_profile`` body for one spec."""
    grp = group(Generator(schema, seed=seed), size, uniform=uniform)
    return profile(grp, ConsensusMethod(method), w1=w1)

"""Group uniformity (Section 4.1).

``uniformity(G) = 2 / (|G| (|G|-1)) * sum_{u<v} cos(u, v)`` -- the
average pairwise cosine similarity between member profile vectors
(members' four category vectors concatenated).  Uniform groups sit
above 0.85, non-uniform groups below 0.20.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.similarity import cosine_matrix

if TYPE_CHECKING:  # avoid an import cycle with repro.profiles at runtime
    from repro.profiles.group import Group


def group_uniformity(group: "Group") -> float:
    """Average pairwise member cosine; 1.0 for singleton groups.

    A singleton trivially agrees with itself, and the paper only ever
    evaluates uniformity on multi-member groups, so the singleton value
    just needs to be sane.
    """
    return matrix_uniformity(np.vstack([m.concatenated()
                                        for m in group.members]))


def matrix_uniformity(members: np.ndarray) -> float:
    """:func:`group_uniformity` over a ``(size, D)`` matrix whose rows
    are the members' concatenated profile vectors."""
    n = len(members)
    if n < 2:
        return 1.0
    sims = cosine_matrix(members)
    upper = sims[np.triu_indices(n, k=1)]
    return float(upper.mean())

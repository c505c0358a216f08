"""Baseline Travel Packages for the evaluation (Section 4.4).

* :func:`random_package` -- valid CIs assembled from uniformly random
  POIs (the paper's "random TP").
* :func:`invalid_random_package` -- a random package that deliberately
  violates the query's category counts; injected as an attention check
  to filter careless study participants.
* :func:`non_personalized_package` -- KFC with the personalization
  weight gamma set to zero ("the weight of the personalization
  dimension [set] to 0 in the objective function").
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.composite import CompositeItem
from repro.core.kfc import KFCBuilder
from repro.core.package import TravelPackage
from repro.core.query import GroupQuery
from repro.data.dataset import POIDataset
from repro.data.poi import Category
from repro.profiles.group import GroupProfile


def _random_valid_ci(dataset: POIDataset, query: GroupQuery,
                     rng: np.random.Generator,
                     max_attempts: int = 200) -> CompositeItem:
    """One valid CI with uniformly random member POIs.

    Rejection-samples against the budget; with the experiments' infinite
    budget the first draw always succeeds.
    """
    for _ in range(max_attempts):
        pois = []
        for cat in query.requested_categories():
            needed = query.count(cat)
            pool = dataset.by_category(cat)
            if len(pool) < needed:
                raise ValueError(
                    f"dataset lacks {cat.value} POIs for the query"
                )
            picks = rng.choice(len(pool), size=needed, replace=False)
            pois.extend(pool[int(i)] for i in picks)
        ci = CompositeItem(pois)
        if ci.total_cost() <= query.budget:
            return ci
    raise ValueError(
        f"could not draw a random CI within budget {query.budget} in "
        f"{max_attempts} attempts"
    )


def random_package(dataset: POIDataset, query: GroupQuery, k: int = 5,
                   seed: int = 0) -> TravelPackage:
    """A package of ``k`` random valid CIs."""
    rng = np.random.default_rng(seed)
    return TravelPackage(
        (_random_valid_ci(dataset, query, rng) for _ in range(k)),
        query=query,
    )


def invalid_random_package(dataset: POIDataset, query: GroupQuery, k: int = 5,
                           seed: int = 0) -> TravelPackage:
    """A random package whose CIs *violate* the query (attention check).

    The corruption moves one required slot from the first requested
    category to another category, so the category counts are provably
    wrong while the package still looks superficially plausible.
    """
    rng = np.random.default_rng(seed)
    requested = query.requested_categories()
    donor = requested[0]
    all_cats = [c for c in Category if c != donor and len(dataset.by_category(c)) > 0]
    if not all_cats:
        raise ValueError("dataset too small to corrupt a query")
    receiver = all_cats[0]

    corrupted_counts = dict(query.counts)
    corrupted_counts[donor] = query.count(donor) - 1
    corrupted_counts[receiver] = query.count(receiver) + 1
    corrupted = GroupQuery(counts={c: n for c, n in corrupted_counts.items() if n > 0},
                           budget=query.budget)

    package = TravelPackage(
        (_random_valid_ci(dataset, corrupted, rng) for _ in range(k)),
        query=query,  # evaluated against the *original* query -> invalid
    )
    assert not package.is_valid(query)
    return package


def non_personalized_package(builder: KFCBuilder, profile: GroupProfile,
                             query: GroupQuery, k: int | None = None,
                             seed: int | None = None) -> TravelPackage:
    """KFC output with gamma = 0: representative and cohesive but blind
    to the group's tastes."""
    weights = dataclasses.replace(builder.weights, gamma=0.0)
    return builder.build(profile, query, k=k, seed=seed, weights=weights)

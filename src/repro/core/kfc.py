"""KFC: fuzzy-clustering construction of Travel Packages (Section 3.2).

The optimizer follows Equation 1 and the structure of the original KFC
algorithm the paper builds on (Leroy et al., CIKM 2015), as alternating
maximization over the centroids ``M``, the fuzzy memberships ``W`` and
the Composite Items:

1. **Centroid seeding** (the alpha term).  Fuzzy c-means over the
   city's POI coordinates positions ``k`` starting centroids that cover
   the dataset; fuzziness lets one POI (a hotel, a twice-visited
   museum) participate in several Composite Items.  It runs at the
   build's fuzzifier (a per-call ``weights`` override included).

2. **CI assembly** (the beta + gamma terms).  Around each centroid,
   :func:`repro.core.assembly.assemble_composite_items` picks the valid
   POI set maximizing proximity-to-centroid plus profile/item-vector
   cosine, under the query's category counts and budget.  A round is
   one kernel call for all ``k`` centroids: one city-wide distance
   pass, one batched selection per category.  The profile term
   ``gamma * cos`` does not move between rounds, so a build computes
   it once, after the query's categories pass the feasibility check.
   A round hands back a ``(k, slots)`` matrix of bundle rows, not
   objects.

3. **Centroid update.**  Holding the CIs fixed, each centroid moves to
   the maximizer of its Equation 1 terms -- approximated by the
   weighted mean of (i) all items under their fuzzy memberships,
   weighted ``alpha``, and (ii) the CI's own members, weighted
   ``beta``, gathered from the projected coordinates by the round's
   rows.  Steps 2-3 repeat for ``refine_iterations`` rounds, and the
   package's ``CompositeItem`` objects are built once, from the last
   round's rows, which the package keeps (``TravelPackage.rows``).

The coupling in step 3 is what produces the paper's observed tension
between personalization and geometry: a strongly personalized profile
drags CIs toward preferred POIs, and the centroids follow, trading away
coverage (representativity) and compactness (cohesiveness).

Coordinates are processed in a local equirectangular projection (km
east/north of the city centre) so Euclidean geometry inside FCM matches
the distance function used everywhere else.  The projection -- along
with every other query-independent structure the build needs -- lives
in the shared :class:`~repro.core.arrays.CityArrays` bundle, built once
per city instead of once per builder.
"""

from __future__ import annotations

import copy
import threading
import weakref
from dataclasses import replace

import numpy as np

from repro.clustering.fuzzy_cmeans import (
    FuzzyCMeans,
    fcm_memberships,
    sq_distances,
)
from repro.core.arrays import CityArrays, project_points, unproject_points
from repro.core.assembly import (
    _check_feasible_categories,
    assemble_composite_items,
    composite_items,
    gamma_sims,
)
from repro.core.objective import ObjectiveWeights
from repro.core.package import TravelPackage
from repro.core.query import GroupQuery
from repro.data.dataset import POIDataset
from repro.obs import stage
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex

#: FCM seeds shared by geometry: ``id(xy)`` -> fuzzifier -> ``{(k, seed):
#: projected centroids}``, least recently used first.  An entry lives as
#: long as its ``xy`` array; a wire ``seed`` and fuzzifier are
#: client-chosen, so each geometry keeps the :data:`FUZZIFIER_CACHE_SIZE`
#: most recently used fuzzifiers, and each of their maps the
#: :data:`SEED_CACHE_SIZE` most recently used seeds.
_SEEDS: dict[int, dict[float, dict[tuple[int, int], np.ndarray]]] = {}
_SEEDS_LOCK = threading.Lock()
SEED_CACHE_SIZE = 64
FUZZIFIER_CACHE_SIZE = 4


def _seed_cache(xy: np.ndarray,
                fuzzifier: float) -> dict[tuple[int, int], np.ndarray]:
    """The shared ``(k, seed)`` map of FCM fits over ``xy`` at
    ``fuzzifier``, made the geometry's most recently used one."""
    with _SEEDS_LOCK:
        per_xy = _SEEDS.get(id(xy))
        if per_xy is None:
            per_xy = _SEEDS[id(xy)] = {}
            weakref.finalize(xy, _SEEDS.pop, id(xy), None)
        cache = per_xy.pop(fuzzifier, None)
        per_xy[fuzzifier] = cache = {} if cache is None else cache
        if len(per_xy) > FUZZIFIER_CACHE_SIZE:
            del per_xy[next(iter(per_xy))]
        return cache


class KFCBuilder:
    """Builds personalized Travel Packages for a city.

    Args:
        dataset: The city's POIs.
        item_index: Item vectors fitted on the same dataset.
        weights: Equation 1 weights (alpha, beta, gamma, fuzzifier).
        k: Number of Composite Items per package (paper default: 5).
        seed: Seed for FCM initialization.
        candidate_pool: Candidate cap per category handed to assembly.
        refine_iterations: Alternating assembly/recenter rounds after
            the FCM seeding.
        arrays: Precomputed per-city bundle to build against.  When
            omitted (the common path) the process-wide pooled bundle
            for ``(dataset, item_index)`` is used, so several builders
            over one city share one precompute.
    """

    def __init__(self, dataset: POIDataset, item_index: ItemVectorIndex,
                 weights: ObjectiveWeights = ObjectiveWeights(),
                 k: int = 5, seed: int = 0, candidate_pool: int = 60,
                 refine_iterations: int = 2,
                 arrays: CityArrays | None = None) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        if refine_iterations < 0:
            raise ValueError("refine_iterations must be non-negative")
        self.dataset = dataset
        self.item_index = item_index
        self.weights = weights
        self.k = k
        self.seed = seed
        self.candidate_pool = candidate_pool
        self.refine_iterations = refine_iterations
        if arrays is None:
            arrays = CityArrays.of(dataset, item_index)
        self.arrays = arrays
        self._projected_t = np.ascontiguousarray(arrays.xy.T)
        self._origin = arrays.origin
        # FCM seeds depend only on (xy, k, seed, fuzzifier): builders
        # over one xy (a reprice's patched bundle keeps it) share them.
        self._centroid_cache = _seed_cache(arrays.xy, weights.fuzzifier)

    # -- coordinate projection -------------------------------------------------

    def _project_points(self, latlon: np.ndarray) -> np.ndarray:
        """Project arbitrary ``(lat, lon)`` rows with the dataset's origin."""
        return project_points(latlon, self._origin)

    def _unproject(self, xy: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_project_points`, returning ``(lat, lon)`` rows."""
        return unproject_points(xy, self._origin)

    # -- the algorithm ------------------------------------------------------------

    def place_centroids(self, k: int | None = None,
                        seed: int | None = None) -> np.ndarray:
        """Step 1: fuzzy c-means centroid seeding.

        Returns a ``(k, 2)`` array of ``(lat, lon)`` centroids covering
        the dataset.
        """
        k = self.k if k is None else k
        seed = self.seed if seed is None else seed
        key, cache = (k, seed), self._centroid_cache
        with stage("fcm_seed"):
            with _SEEDS_LOCK:
                fitted = cache.pop(key, None)
            if fitted is None:
                fitted = FuzzyCMeans(n_clusters=k, m=self.weights.fuzzifier,
                                     seed=seed).fit(self.arrays.xy).centroids
            with _SEEDS_LOCK:  # reinsert as the newest, evict the oldest
                cache[key] = fitted
                if len(cache) > SEED_CACHE_SIZE:
                    del cache[next(iter(cache))]
            return self._unproject(fitted)

    def _seeder(self, fuzzifier: float) -> "KFCBuilder":
        """This builder, or a shallow copy of it that seeds FCM at
        ``fuzzifier`` (a request's weights may override the builder's),
        so every seeding goes through :meth:`place_centroids`."""
        if fuzzifier == self.weights.fuzzifier:
            return self
        seeder = copy.copy(self)
        seeder.weights = replace(self.weights, fuzzifier=fuzzifier)
        seeder._centroid_cache = _seed_cache(self.arrays.xy, fuzzifier)
        return seeder

    def _recenter(self, centroids: np.ndarray, rows: np.ndarray,
                  weights: ObjectiveWeights) -> np.ndarray:
        """Step 3: move each centroid to the alpha/beta-weighted mean of
        its fuzzy members and its CI's members (in projected km space).

        ``rows`` is the last round's ``(k, slots)`` bundle rows; one
        gather sums every CI's member coordinates, each CI's in slot
        order (as ``xy[ci_rows].sum(axis=0)`` adds them).
        """
        cent_xy = self._project_points(centroids)
        # sqrt of the ordered squared sum is np.linalg.norm(axis=2).
        dists = np.sqrt(sq_distances(self._projected_t, cent_xy))
        memberships = fcm_memberships(dists,
                                      2.0 / (weights.fuzzifier - 1.0))
        weighted = np.ascontiguousarray(memberships.T) ** weights.fuzzifier
        ci_xy_sums = self.arrays.xy[rows].sum(axis=1)
        members = rows.shape[1]

        new_xy = cent_xy.copy()
        for j in range(len(rows)):
            column = weighted[:, j]
            mass = column.sum()
            pull_weight = weights.alpha * mass
            if pull_weight > 0:
                fcm_pull = (column @ self.arrays.xy) / mass
            else:
                fcm_pull = cent_xy[j]
            total = pull_weight + weights.beta * members
            if total <= 0:
                continue  # the centroid stays put
            new_xy[j] = (pull_weight * fcm_pull
                         + weights.beta * ci_xy_sums[j]) / total
        return self._unproject(new_xy)

    def build(self, profile: GroupProfile, query: GroupQuery,
              k: int | None = None, seed: int | None = None,
              weights: ObjectiveWeights | None = None) -> TravelPackage:
        """Build a Travel Package for a group profile and query.

        Args:
            weights: Optional per-call override of the Equation 1
                weights (the synthetic sweep draws alpha and beta per
                package).

        Raises :class:`~repro.core.assembly.InfeasibleQueryError` if the
        query cannot be satisfied anywhere in the city.
        """
        w = weights or self.weights
        requested = query.requested_categories()
        _check_feasible_categories(self.dataset, query, requested)
        gsims = gamma_sims(self.arrays, profile, requested, w.gamma)
        centroids = self._seeder(w.fuzzifier).place_centroids(k=k, seed=seed)
        for refine in range(1 + self.refine_iterations):
            if refine:
                with stage("recenter"):
                    centroids = self._recenter(centroids, rows, w)
            # Step 2: one valid CI per centroid, in one kernel call.
            rows = assemble_composite_items(
                self.dataset, centroids, query, profile, self.item_index,
                beta=w.beta, gamma=w.gamma, arrays=self.arrays, gsims=gsims,
                candidate_pool=self.candidate_pool)
        return TravelPackage(
            composite_items(self.dataset, self.arrays, centroids, rows),
            query=query, rows=rows)

"""KFC: fuzzy-clustering construction of Travel Packages (Section 3.2).

The optimizer follows Equation 1 and the structure of the original KFC
algorithm the paper builds on (Leroy et al., CIKM 2015), as alternating
maximization over the centroids ``M``, the fuzzy memberships ``W`` and
the Composite Items:

1. **Centroid seeding** (the alpha term).  Fuzzy c-means over the
   city's POI coordinates positions ``k`` starting centroids that cover
   the dataset; fuzziness lets one POI (a hotel, a twice-visited
   museum) participate in several Composite Items.

2. **CI assembly** (the beta + gamma terms).  Around each centroid,
   :func:`repro.core.assembly.assemble_composite_items` picks the valid
   POI set maximizing proximity-to-centroid plus profile/item-vector
   cosine, under the query's category counts and budget -- one batched
   kernel call for all ``k`` centroids per round.

3. **Centroid update.**  Holding the CIs fixed, each centroid moves to
   the maximizer of its Equation 1 terms -- approximated by the
   weighted mean of (i) all items under their fuzzy memberships,
   weighted ``alpha``, and (ii) the CI's own members, weighted
   ``beta``.  Steps 2-3 repeat for ``refine_iterations`` rounds.

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

import numpy as np

from repro.clustering.fuzzy_cmeans import FuzzyCMeans
from repro.core.arrays import CityArrays, project_points, unproject_points
from repro.core.assembly import assemble_composite_items
from repro.core.composite import CompositeItem
from repro.core.objective import ObjectiveWeights, fuzzy_memberships
from repro.core.package import TravelPackage
from repro.core.query import GroupQuery
from repro.data.dataset import POIDataset
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex


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
        self._projected = arrays.xy
        self._origin = arrays.origin
        # FCM seeding depends only on (k, seed), never on the profile or
        # query, so sweeps building thousands of packages over one city
        # reuse the solution.
        self._centroid_cache: dict[tuple[int, int], np.ndarray] = {}

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
        key = (k, seed)
        if key not in self._centroid_cache:
            fcm = FuzzyCMeans(n_clusters=k, m=self.weights.fuzzifier,
                              seed=seed)
            result = fcm.fit(self._projected)
            self._centroid_cache[key] = self._unproject(result.centroids)
        return self._centroid_cache[key].copy()

    def _assemble_all(self, centroids: np.ndarray, query: GroupQuery,
                      profile: GroupProfile,
                      weights: ObjectiveWeights) -> list[CompositeItem]:
        """Step 2: one valid CI per centroid.

        The batched kernel amortizes each category's profile mat-vec
        and distance pass across all ``k`` centroids at once; since
        every refine round re-enters here, the refine loop is
        vectorized on the same kernel.
        """
        return assemble_composite_items(
            self.dataset, centroids, query, profile, self.item_index,
            beta=weights.beta, gamma=weights.gamma,
            candidate_pool=self.candidate_pool, arrays=self.arrays,
        )

    def _ci_xy_sum(self, ci: CompositeItem) -> np.ndarray:
        """Summed projected coordinates of a CI's members.

        Reads the shared projected rows when every member is in the
        bundle (the build path always is); falls back to projecting the
        member coordinates directly (e.g. a customization session that
        introduced out-of-dataset POIs).
        """
        try:
            rows = self.arrays.rows_for(p.id for p in ci.pois)
        except KeyError:
            pass
        else:
            return self.arrays.xy[rows].sum(axis=0)
        return self._project_points(
            np.array([[p.lat, p.lon] for p in ci.pois])
        ).sum(axis=0)

    def _recenter(self, centroids: np.ndarray, cis: list[CompositeItem],
                  weights: ObjectiveWeights) -> np.ndarray:
        """Step 3: move each centroid to the alpha/beta-weighted mean of
        its fuzzy members and its CI's members (in projected km space)."""
        cent_xy = self._project_points(centroids)
        dists = np.linalg.norm(
            self._projected[:, None, :] - cent_xy[None, :, :], axis=2
        )
        memberships = fuzzy_memberships(dists, weights.fuzzifier)
        weighted = memberships ** weights.fuzzifier

        new_xy = np.empty_like(cent_xy)
        for j, ci in enumerate(cis):
            pull_weight = weights.alpha * weighted[:, j].sum()
            if pull_weight > 0:
                fcm_pull = (weighted[:, j] @ self._projected) / weighted[:, j].sum()
            else:
                fcm_pull = cent_xy[j]
            # An empty CI (possible after whole-CI deletion in a
            # customization session) contributes no beta pull; guarding
            # here also keeps np.array([]) from reaching the projection
            # as a 1-D array.
            if ci.pois:
                ci_xy_sum = self._ci_xy_sum(ci)
            else:
                ci_xy_sum = np.zeros(2)
            ci_weight = weights.beta * len(ci.pois)
            total = pull_weight + ci_weight
            if total <= 0:
                new_xy[j] = cent_xy[j]
                continue
            new_xy[j] = (weights.alpha * weighted[:, j].sum() * fcm_pull
                         + weights.beta * ci_xy_sum) / total
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
        centroids = self.place_centroids(k=k, seed=seed)
        cis = self._assemble_all(centroids, query, profile, w)
        for _ in range(self.refine_iterations):
            centroids = self._recenter(centroids, cis, w)
            cis = self._assemble_all(centroids, query, profile, w)
        return TravelPackage(cis, query=query)

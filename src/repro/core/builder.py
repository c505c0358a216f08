"""The ``GroupTravel`` facade -- the library's front door.

Wires the full pipeline of Figure 2 together: fit item vectors over a
city, aggregate a group profile with a consensus method, build a
personalized Travel Package with KFC, open customization sessions, and
refine profiles from the interaction log.

    >>> from repro.data import generate_city
    >>> from repro.profiles import GroupGenerator
    >>> from repro.core import GroupTravel, GroupQuery
    >>> city = generate_city("paris", seed=1, scale=0.2)
    >>> app = GroupTravel(city, seed=1)                     # doctest: +SKIP
    >>> group = GroupGenerator(app.schema, seed=2).uniform_group(5)  # doctest: +SKIP
    >>> tp = app.build_package(group, GroupQuery.of(acco=1, trans=1, rest=1, attr=3))  # doctest: +SKIP
"""

from __future__ import annotations

from repro.core.customize import CustomizationSession
from repro.core.kfc import KFCBuilder
from repro.core.objective import ObjectiveWeights, evaluate_objective
from repro.core.package import TravelPackage
from repro.core.query import DEFAULT_QUERY, GroupQuery
from repro.core.refine import refine_batch, refine_individual
from repro.data.dataset import POIDataset
from repro.profiles.consensus import ConsensusMethod
from repro.profiles.group import Group, GroupProfile
from repro.profiles.schema import ProfileSchema
from repro.profiles.vectors import ItemVectorIndex


class GroupTravel:
    """End-to-end GroupTravel system for one city.

    Args:
        dataset: The city's POIs.
        item_index: Pre-fitted item vectors; fitted on the dataset when
            omitted (the common path).
        weights: Equation 1 weights.
        k: Composite Items per package.
        seed: Seed for LDA and FCM.
        lda_iterations: Gibbs sweeps when fitting item vectors here.
    """

    def __init__(self, dataset: POIDataset,
                 item_index: ItemVectorIndex | None = None,
                 weights: ObjectiveWeights = ObjectiveWeights(),
                 k: int = 5, seed: int = 0,
                 lda_iterations: int = 150) -> None:
        self.dataset = dataset
        self.item_index = item_index or ItemVectorIndex.fit(
            dataset, lda_iterations=lda_iterations, seed=seed
        )
        self.weights = weights
        self.kfc = KFCBuilder(dataset, self.item_index, weights=weights,
                              k=k, seed=seed)
        # The per-city precompute the builder scored against; shared
        # with customization sessions and objective evaluation.
        self.arrays = self.kfc.arrays

    @property
    def schema(self) -> ProfileSchema:
        """The profile coordinate system users/groups must rate against."""
        return self.item_index.schema

    # -- package construction -------------------------------------------------

    def group_profile(self, group: Group,
                      method: ConsensusMethod | str = ConsensusMethod.AVERAGE,
                      w1: float | None = None) -> GroupProfile:
        """Aggregate a group's members with a consensus method."""
        return group.profile(method, w1=w1)

    def build_package(self, group: Group, query: GroupQuery = DEFAULT_QUERY,
                      method: ConsensusMethod | str = ConsensusMethod.AVERAGE,
                      w1: float | None = None, k: int | None = None,
                      seed: int | None = None) -> TravelPackage:
        """Figure 2's main path: consensus profile -> KFC -> package."""
        profile = self.group_profile(group, method, w1=w1)
        return self.kfc.build(profile, query, k=k, seed=seed)

    def build_for_profile(self, profile: GroupProfile,
                          query: GroupQuery = DEFAULT_QUERY,
                          k: int | None = None,
                          seed: int | None = None) -> TravelPackage:
        """Build from an explicit (e.g. refined) group profile."""
        return self.kfc.build(profile, query, k=k, seed=seed)

    # -- customization -----------------------------------------------------------

    def customize(self, package: TravelPackage,
                  profile: GroupProfile) -> CustomizationSession:
        """Open an interactive customization session on a package."""
        return CustomizationSession(
            package=package, dataset=self.dataset, profile=profile,
            item_index=self.item_index, beta=self.weights.beta,
            gamma=self.weights.gamma, arrays=self.arrays,
        )

    def refine_profile_batch(self, profile: GroupProfile,
                             session: CustomizationSession) -> GroupProfile:
        """Batch refinement from a session's pooled interactions."""
        return refine_batch(profile, session.interactions, self.item_index)

    def refine_profile_individual(self, group: Group,
                                  session: CustomizationSession,
                                  method: ConsensusMethod | str = ConsensusMethod.AVERAGE,
                                  w1: float | None = None) -> tuple[Group, GroupProfile]:
        """Individual refinement: per-member updates, then re-aggregation."""
        return refine_individual(group, session.interactions, self.item_index,
                                 method=method, w1=w1)

    # -- evaluation ----------------------------------------------------------------

    def objective_value(self, package: TravelPackage,
                        profile: GroupProfile) -> float:
        """Equation 1's value for a package under this system's weights."""
        return evaluate_objective(self.dataset, package, profile,
                                  self.item_index, self.weights,
                                  arrays=self.arrays)

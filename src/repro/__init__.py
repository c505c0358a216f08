"""GroupTravel reproduction (EDBT 2019).

A full re-implementation of *GroupTravel: Customizing Travel Packages
for Groups* (Amer-Yahia et al., EDBT 2019): personalized Travel
Packages of Composite Items for groups of travelers, built with fuzzy
clustering over a city's POIs, aggregated group profiles via consensus
functions, interactive customization operators, and profile refinement.

Quickstart::

    from repro.data import generate_city
    from repro.core import GroupTravel, GroupQuery
    from repro.profiles import GroupGenerator

    city = generate_city("paris", seed=7)
    app = GroupTravel(city, seed=7)
    group = GroupGenerator(app.schema, seed=7).uniform_group(5)
    package = app.build_package(group, GroupQuery.of(acco=1, trans=1,
                                                     rest=1, attr=3))

For serving workloads (request/response wire format, per-city asset
pooling, package caching, batched builds), see :mod:`repro.service` --
``python -m repro.service`` runs a JSON-lines demo.  README.md has the
architecture overview; ``repro.experiments`` reproduces the paper's
tables and figures.
"""

__version__ = "1.27.0"

from repro.core import (
    CityArrays,
    CompositeItem,
    DEFAULT_QUERY,
    GroupQuery,
    GroupTravel,
    KFCBuilder,
    ObjectiveWeights,
    TravelPackage,
)
from repro.data import POIDataset, generate_city
from repro.profiles import ConsensusMethod, Group, GroupGenerator, UserProfile

__all__ = [
    "CityArrays",
    "CompositeItem",
    "ConsensusMethod",
    "DEFAULT_QUERY",
    "Group",
    "GroupGenerator",
    "GroupQuery",
    "GroupTravel",
    "KFCBuilder",
    "ObjectiveWeights",
    "POIDataset",
    "TravelPackage",
    "UserProfile",
    "generate_city",
    "__version__",
]

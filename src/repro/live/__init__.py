"""``repro.live``: streaming city mutations with incremental recompute.

The subsystem that lets the serving stack survive data churn --
venues closing, prices changing, new POIs opening -- without full
re-registration.  Three layers:

* :mod:`repro.live.mutations` -- typed, JSON-round-trippable mutation
  records (``close_poi`` / ``reprice_poi`` / ``add_poi``) plus the
  bounded, deterministically replayable per-city :class:`MutationLog`;
* :mod:`repro.live.patch` -- incremental
  :class:`~repro.core.arrays.CityArrays` patching, byte-identical to a
  fresh build over the mutated dataset and the only path a mutation
  takes to the bundle;
* epoch-versioned coherence, wired through
  :class:`~repro.service.registry.CityRegistry` (per-city epoch bumps,
  ``mutate()``), the package cache (epoch-keyed entries), customization
  sessions (replay-or-``stale_epoch``) and the ``mutate`` wire op.
"""

from repro.live.mutations import (
    AddPoi,
    ClosePoi,
    Mutation,
    MutationError,
    MutationLog,
    RepricePoi,
    mutation_from_dict,
)
from repro.live.patch import patch_arrays

__all__ = [
    "AddPoi",
    "ClosePoi",
    "Mutation",
    "MutationError",
    "MutationLog",
    "RepricePoi",
    "mutation_from_dict",
    "patch_arrays",
]

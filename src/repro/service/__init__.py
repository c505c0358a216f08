"""The GroupTravel serving engine.

Turns the in-process reproduction library into a request/response
system: typed wire-format requests (:mod:`repro.service.schema`),
per-city pooled assets (:mod:`repro.service.registry`), a cross-request
LRU package cache (:mod:`repro.service.cache`) and the
:class:`PackageService` facade (:mod:`repro.service.engine`) with
single, batched and session-based entry points; every latency and
event count lives in one :class:`~repro.obs.MetricsRegistry` per
process.

    >>> from repro.service import BuildRequest, GroupSpec, PackageService
    >>> from repro.service.registry import CityRegistry
    >>> service = PackageService(CityRegistry(scale=0.3, lda_iterations=40))
    >>> response = service.build(BuildRequest(                 # doctest: +SKIP
    ...     city="paris", group_spec=GroupSpec(size=5, seed=3)))

On top of the single-process engine sits the **serving tier**: a
city-affine shard layer with one worker process per shard
(:mod:`repro.service.shard`), an asyncio NDJSON front-end with
admission control and graceful drain
(:mod:`repro.service.server`) and a deterministic workload generator
(:mod:`repro.service.loadgen`).  The whole stack is traced end to end
by :mod:`repro.obs`: per-stage latency histograms that merge exactly
across shards, per-request span trees, and an optional NDJSON event
log (``serve --obs-log``).  Windowed telemetry
(:mod:`repro.obs.metrics`) rides the same stack: every process keeps
counters/gauges/latency windows, the ``health`` wire op evaluates SLO
burn rates over them (``ok|degraded|breached`` with reasons), and
``python -m repro.obs.top`` renders the live cluster view.

``python -m repro.service`` runs a JSON-lines demo over two cities;
``python -m repro.service serve`` / ``loadgen`` run the network tier --
see :mod:`repro.service.__main__`.
"""

from repro.service.cache import PackageCache, cache_key, profile_fingerprint
from repro.service.engine import PackageService, UnknownSessionError
from repro.service.loadgen import LoadgenConfig, LoadgenReport, build_workload
from repro.service.registry import CityEntry, CityRegistry, populate_store
from repro.service.schema import (
    MAX_GROUP_SIZE,
    MAX_K,
    BuildRequest,
    CustomizeOp,
    CustomizeRequest,
    ErrorCode,
    GroupSpec,
    PackageResponse,
)
from repro.service.server import PackageServer
from repro.service.shard import ShardCluster, ShardConfig

__all__ = [
    "BuildRequest",
    "CityEntry",
    "CityRegistry",
    "CustomizeOp",
    "CustomizeRequest",
    "ErrorCode",
    "GroupSpec",
    "LoadgenConfig",
    "LoadgenReport",
    "MAX_GROUP_SIZE",
    "MAX_K",
    "PackageCache",
    "PackageResponse",
    "PackageServer",
    "PackageService",
    "ShardCluster",
    "ShardConfig",
    "UnknownSessionError",
    "build_workload",
    "cache_key",
    "populate_store",
    "profile_fingerprint",
]

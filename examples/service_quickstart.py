"""Service quickstart: GroupTravel as a multi-city serving engine.

Demonstrates the ``repro.service`` layer end to end: pooled per-city
assets, cached builds, a batch over two cities, a customization session over
the wire types, and profile refinement feeding a rebuilt package.

    python examples/service_quickstart.py
"""

import json

from repro.core.objective import ObjectiveWeights
from repro.service import (
    BuildRequest,
    CityRegistry,
    CustomizeOp,
    CustomizeRequest,
    GroupSpec,
    PackageService,
)


def main() -> None:
    # One registry pools the expensive per-city assets (dataset, item
    # vectors, KFC builder); small scale keeps the demo snappy.
    registry = CityRegistry(scale=0.35, lda_iterations=50,
                            weights=ObjectiveWeights(gamma=2.0))
    service = PackageService(registry, cache_capacity=64)

    # -- one request, twice: cold build vs. warm cache --------------------
    request = BuildRequest(city="paris",
                           group_spec=GroupSpec(size=5, uniform=True, seed=3))
    cold = service.build(request)
    warm = service.build(request)
    print(f"cold build: {cold.latency_ms:8.2f} ms (cached={cold.cached})")
    print(f"warm build: {warm.latency_ms:8.2f} ms (cached={warm.cached})")
    print(f"package quality: {json.dumps(cold.metrics, default=float)}\n")

    # -- one batch over two cities ----------------------------------------
    batch = [
        BuildRequest(city=city, group_spec=GroupSpec(size=5, seed=seed),
                     request_id=f"{city}-{seed}")
        for city in ("paris", "barcelona") for seed in (11, 12, 13)
    ]
    responses = service.build_batch(batch)
    print("batch of 6 requests over 2 cities:")
    for response in responses:
        print(f"  {response.request_id}: {response.latency_ms:7.2f} ms, "
              f"representativity {response.metrics['representativity_km']:.1f} km")

    # -- a customization session over the wire types ------------------------
    opened = service.open_session(request)
    session_id = opened.session_id
    victim = opened.package[0].pois[-1]
    print(f"\nsession {session_id}: removing {victim.name!r} from day 1")
    service.apply(CustomizeRequest(session_id=session_id,
                                   op=CustomizeOp.REMOVE, ci_index=0,
                                   poi_id=victim.id, actor=0))
    candidate = service.suggest_additions(session_id, ci_index=0, k=1,
                                          category=victim.cat)[0]
    print(f"session {session_id}: adding   {candidate.name!r} instead")
    service.apply(CustomizeRequest(session_id=session_id,
                                   op=CustomizeOp.ADD, ci_index=0,
                                   add_poi_id=candidate.id, actor=0))

    # The interaction log refines the group profile; rebuilding with the
    # refined profile personalizes the whole package to the feedback.
    service.refine(session_id)
    rebuilt = service.rebuild(session_id)
    print(f"rebuilt from refined profile: personalization "
          f"{rebuilt.metrics['personalization']:.2f} "
          f"(was {opened.metrics['personalization']:.2f})")
    log = service.close_session(session_id)
    print(f"closed session after {len(log)} interactions\n")

    stats = service.stats()
    print("service stats:", json.dumps(
        {"cities": stats["cities"], "cache": stats["cache"]}, indent=2))


if __name__ == "__main__":
    main()

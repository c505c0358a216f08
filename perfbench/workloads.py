"""Seeded request plans for the benchmark's three workloads.

A plan is a pure function of ``(workload, seed)``: the same seed yields
the same steps byte for byte, and any other seed yields the same op
kinds in the same cadence with different group specs, budgets, edit
targets and prices -- so a run on a held-out seed is comparable.

Steps that must name data the server chose (the POI an edit removes,
the POI a mutation reprices) carry a *slot*: a fixed rule that picks
from the package the last response returned.  :func:`resolve` turns a
step into its wire envelope at send time.  Because the serving stack is
deterministic, the resolved stream is a function of the seed as well.

This module imports nothing from the program under test.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator

CITY = "paris"
WORKLOADS = ("cold_build", "warm_hit", "live_edit")

#: Distinct specs cycled by warm_hit, all primed before timing; well
#: under the package cache's default 256 entries.
WARM_POOL = 64

#: Units per plan.  Each is far more than a run sends; live_edit's bound
#: keeps a run (about 2.25 mutations per cycle) far below the 1024-entry
#: mutation journal, past which every mutate fails.
PLAN_UNITS = {"cold_build": 6000, "warm_hit": 60000, "live_edit": 300}

#: The venue that closes and reopens between sessions: Paris's last
#: generated POI (ids run 0..899).  Each close/add pair appends this
#: record under a fresh id and closes the previous copy, so after the
#: first pair (in the warm-up cycle) the city's coordinate sequence --
#: all FCM seeding reads -- is the same at every epoch and on every
#: seed, and each re-seeding costs the same.
REOPENED = {"id": 899, "name": "History Museum 899 (Paris)", "cat": "attr",
            "lat": 48.851428517911714, "lon": 2.328331185742853,
            "type": "history museum", "cost": 4.68213122712422,
            "tags": ["archive", "heritage", "local", "manuscripts",
                     "tourists", "museum"]}

#: First id given to a re-opened copy.
REOPEN_ID_BASE = 10_000


def _rng(workload: str, seed: int, part: str = "") -> random.Random:
    # String seeds hash through SHA-512: stable across runs and platforms.
    return random.Random(f"{workload}/{seed}/{part}")


def _query(attr: int, budget: float | None = None) -> dict:
    return {"counts": {"acco": 1, "trans": 1, "rest": 1, "attr": attr},
            "budget": budget}


def _build(op: str, rid: str, spec: dict, query: dict) -> dict:
    return {"op": op, "request": {"city": CITY, "group_spec": spec,
                                  "query": query, "request_id": rid}}


def _spec(rng: random.Random, seen: set[int], uniform: bool) -> dict:
    """A group spec whose seed this plan never used before."""
    spec_seed = rng.getrandbits(40)
    while spec_seed in seen:
        spec_seed = rng.getrandbits(40)
    seen.add(spec_seed)
    return {"size": rng.randint(2, 8), "uniform": uniform, "seed": spec_seed,
            "method": "average", "w1": None}


def warm_pool(seed: int) -> list[dict]:
    """warm_hit's spec pool as build envelopes (primed before timing)."""
    rng, seen = _rng("warm_hit", seed, "pool"), set()
    return [_build("build", f"w{seed}-p{i}", _spec(rng, seen, i % 2 == 0),
                   _query(2 + i % 4))
            for i in range(WARM_POOL)]


def units(workload: str, seed: int) -> Iterator[list[dict]]:
    """The workload's plan, one unit at a time.

    A unit is the smallest piece a run starts or stops on: one build for
    cold_build and warm_hit, one whole session cycle for live_edit (so a
    run never ends with a session open or a close/add pair split).
    """
    if workload == "cold_build":
        return _cold_units(seed)
    if workload == "warm_hit":
        return _warm_units(seed)
    if workload == "live_edit":
        return _live_units(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _cold_units(seed: int) -> Iterator[list[dict]]:
    """Never-repeated specs: every build is a cache miss.

    Cadence (period 32): attraction counts sweep 2..5 in blocks of four,
    every fourth build carries a binding budget (about 4 per POI against
    a typical unconstrained CI's 5 per POI), and groups switch between
    uniform and non-uniform every 16 builds.
    """
    rng, seen = _rng("cold_build", seed), set()
    for i in range(PLAN_UNITS["cold_build"]):
        attr = 2 + (i // 4) % 4
        budget = None
        if i % 4 == 3:
            budget = round(rng.uniform(3.8, 4.4) * (3 + attr), 3)
        spec = _spec(rng, seen, (i // 16) % 2 == 0)
        yield [_build("build", f"c{seed}-{i}", spec, _query(attr, budget))]


def _warm_units(seed: int) -> Iterator[list[dict]]:
    """Builds cycling the primed pool in a fresh shuffle every round."""
    rng = _rng("warm_hit", seed, "order")
    order: list[int] = []
    for i in range(PLAN_UNITS["warm_hit"]):
        if not order:
            order = rng.sample(range(WARM_POOL), WARM_POOL)
        yield [{"op": "build", "pool": order.pop(), "request_id": f"w{seed}-{i}"}]


def _pick(rng: random.Random) -> dict:
    """A slot: which CI and which member of it (taken modulo sizes)."""
    return {"ci": rng.randrange(5), "pos": rng.randrange(8)}


def _live_units(seed: int) -> Iterator[list[dict]]:
    """One session cycle per unit.

    Cycle: open a session (after a mutation, so its build re-seeds FCM),
    REMOVE, reprice a POI of the open package (the next edit replays the
    session), REPLACE, ADD, close.  Between sessions, every fourth cycle
    re-opens :data:`REOPENED` under a new id and closes its previous
    copy (Paris stays at 900 POIs); the other cycles reprice a POI of
    the final package.  Sessions carry no budget, so an in-session
    reprice replays cleanly.
    """
    rng, seen = _rng("live_edit", seed), set()
    for c in range(PLAN_UNITS["live_edit"]):
        rid = f"l{seed}-{c}"
        cycle = [
            _build("open_session", f"{rid}-open",
                   _spec(rng, seen, c % 2 == 0), _query(2 + c % 4)),
            {"op": "customize", "edit": "remove", "slot": _pick(rng),
             "request_id": f"{rid}-remove"},
            {"op": "mutate", "kind": "reprice_poi", "slot": _pick(rng),
             "cost": round(rng.uniform(1.1, 9.2), 3),
             "request_id": f"{rid}-reprice-in"},
            {"op": "customize", "edit": "replace", "slot": _pick(rng),
             "request_id": f"{rid}-replace"},
            {"op": "customize", "edit": "add", "slot": _pick(rng),
             "request_id": f"{rid}-add"},
            {"op": "close_session", "request_id": f"{rid}-close"},
        ]
        if c % 4 == 0:
            previous = REOPENED["id"] if c == 0 else REOPEN_ID_BASE + c - 4
            cycle += [
                {"op": "mutate", "kind": "add_poi",
                 "poi": dict(REOPENED, id=REOPEN_ID_BASE + c),
                 "request_id": f"{rid}-add-poi"},
                {"op": "mutate", "kind": "close_poi", "poi_id": previous,
                 "request_id": f"{rid}-close-poi"},
            ]
        else:
            cycle.append({"op": "mutate", "kind": "reprice_poi",
                          "slot": _pick(rng),
                          "cost": round(rng.uniform(1.1, 9.2), 3),
                          "request_id": f"{rid}-reprice"})
        yield cycle


# -- resolution ---------------------------------------------------------------

class Context:
    """What a client remembers between steps: warm_hit's primed pool,
    the package the last response returned and the open session."""

    def __init__(self, pool: list[dict] | None = None) -> None:
        self.pool = pool or []
        self.package: dict | None = None
        self.session_id: str | None = None


def _slot_poi(package: dict, slot: dict) -> tuple[int, dict]:
    cis = package["composite_items"]
    ci = slot["ci"] % len(cis)
    pois = cis[ci]["pois"]
    return ci, pois[slot["pos"] % len(pois)]


def _add_source(package: dict, slot: dict) -> tuple[int, int]:
    """ADD target CI and the first POI of a later CI it lacks."""
    cis = package["composite_items"]
    ci = slot["ci"] % len(cis)
    have = {p["id"] for p in cis[ci]["pois"]}
    for step in range(1, len(cis)):
        for poi in cis[(ci + step) % len(cis)]["pois"]:
            if poi["id"] not in have:
                return ci, poi["id"]
    raise ValueError("no POI outside the target CI to add")


def resolve(step: dict, ctx: Context) -> dict:
    """The wire envelope for one plan step."""
    op = step["op"]
    if op in ("build", "open_session") and "pool" not in step:
        return step
    rid = step["request_id"]
    if op == "build":
        primed = ctx.pool[step["pool"]]
        return {"op": "build", "request": dict(primed["request"],
                                               request_id=rid)}
    if op == "customize":
        request = {"session_id": ctx.session_id, "op": step["edit"],
                   "request_id": rid}
        if step["edit"] == "add":
            ci, poi_id = _add_source(ctx.package, step["slot"])
            request.update(ci_index=ci, add_poi_id=poi_id)
        else:
            ci, poi = _slot_poi(ctx.package, step["slot"])
            request.update(ci_index=ci, poi_id=poi["id"])
        return {"op": "customize", "request": request}
    if op == "close_session":
        return {"op": "close_session",
                "request": {"session_id": ctx.session_id, "request_id": rid}}
    if op == "mutate":
        kind = step["kind"]
        if kind == "add_poi":
            mutation = {"kind": kind, "poi": step["poi"]}
        elif kind == "close_poi":
            mutation = {"kind": kind, "poi_id": step["poi_id"]}
        else:
            _, poi = _slot_poi(ctx.package, step["slot"])
            mutation = {"kind": kind, "poi_id": poi["id"],
                        "cost": step["cost"]}
        return {"op": "mutate", "request": {"city": CITY, "mutation": mutation,
                                            "request_id": rid}}
    raise ValueError(f"unknown plan step {op!r}")


def encode(envelope: dict) -> bytes:
    """One NDJSON request line (canonical key order)."""
    return json.dumps(envelope, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"

"""Deterministic workload generation: ``python -m repro.service loadgen``.

A workload is a seeded, reproducible sequence of **actions** against
the serving tier, drawn from these traffic kinds:

* ``cold``  -- a build request with a never-repeated group spec (a
  cache miss wherever it lands);
* ``warm``  -- a build request drawn from a small fixed pool of specs,
  so repeats hit the owning shard's package cache;
* ``batch`` -- one ``batch`` envelope of several independent builds;
* ``session`` -- open a customization session, apply a few REMOVE
  edits (targets are resolved from the opened package at run time --
  the generator cannot know POI ids up front), then close it;
* ``budget`` -- a cold build carrying a finite budget drawn from
  ``budget_sweep``, so serving traffic exercises the assembly's budget
  repair instead of only the unconstrained path;
* ``mutate`` -- a live city mutation (:mod:`repro.live`): a probe build
  against a warm-pool spec resolves a concrete POI at run time (the
  generator cannot know POI ids up front), then a ``mutate`` envelope
  reprices it, bumping the city's epoch.  The exit summary reports the
  resulting epoch churn: mutations applied, epoch bumps observed, and
  stale-epoch retries clients paid.

``count_sweep`` additionally varies the requested attraction count
across build-type actions, sweeping CI sizes (and thus repair
pressure) deterministically.

``--expect-hydrated`` asserts post-run -- via the server's merged
stats -- that no shard paid an LDA fit, i.e. the whole run was served
from disk-hydrated assets (``serve --store`` populates the store before
its shards warm up).

The observability hooks (:mod:`repro.obs`): ``--trace`` tags every
envelope with a deterministic client-side trace id, ``--expect-traced``
asserts post-run that the merged stats carry finite per-stage latency
percentiles, and ``--dump-slowest N`` fetches and prints the cluster's
N slowest requests as span trees.  ``--slo-p99-ms`` / ``--slo-error-rate``
fetch the server's ``health`` op after the run and print a one-line SLO
verdict computed from the *windowed* telemetry of the run (exact merged
percentiles, not ad-hoc client timing), exiting non-zero on violation
-- the gate bench scripts and CI read.

``build_workload(config)`` is pure and deterministic: same config,
same action list, same JSON payloads -- byte for byte.  Runners exist
for both transports: :func:`run_sync` drives any ``dispatch(op,
payload) -> dict`` callable (benchmarks use it against a
:class:`~repro.service.shard.ShardCluster` directly) and
:func:`run_tcp` speaks the NDJSON envelope protocol against a live
server over ``connections`` concurrent TCP clients, splitting the
action list round-robin so the split is deterministic too.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Awaitable, Callable

from repro.service.server import DEFAULT_PORT, REPLY_LIMIT_BYTES

#: Traffic-mix default: mostly builds, a quarter warm repeats.
DEFAULT_MIX = (("cold", 0.45), ("warm", 0.25), ("batch", 0.15),
               ("session", 0.15))


@dataclass(frozen=True)
class LoadgenConfig:
    """Knobs of a deterministic workload.

    Attributes:
        cities: Cities traffic is spread over (round-robin).
        actions: Number of actions (a batch or session counts as one).
        seed: Master seed; same (config) -> same workload.
        mix: ``(kind, weight)`` pairs; weights need not sum to 1.
        batch_size: Builds per ``batch`` action.
        warm_pool: Distinct specs the ``warm`` kind cycles over.
        session_edits: REMOVE edits applied per session.
        group_size: Members per synthetic group.
        passes: Repetitions of the whole action list (cache studies).
        budget_sweep: Finite budgets the ``budget`` kind cycles over
            (required when the mix contains ``budget``).
        count_sweep: Attraction counts swept across build actions
            (empty = the fixed default of 3).
        trace: Tag every envelope with a deterministic client-side
            trace id (derived from the request id), so a captured
            event log or slowest-trace dump correlates back to
            workload actions.  Untagged requests are still traced --
            the server mints ids -- but with server-chosen ids.
    """

    cities: tuple[str, ...] = ("paris", "barcelona")
    actions: int = 50
    seed: int = 0
    mix: tuple[tuple[str, float], ...] = DEFAULT_MIX
    batch_size: int = 4
    warm_pool: int = 4
    session_edits: int = 2
    group_size: int = 5
    passes: int = 1
    budget_sweep: tuple[float, ...] = ()
    count_sweep: tuple[int, ...] = ()
    trace: bool = False

    def __post_init__(self) -> None:
        if not self.cities:
            raise ValueError("a workload needs at least one city")
        if self.actions < 1:
            raise ValueError("a workload needs at least one action")
        kinds = {kind for kind, _ in self.mix}
        unknown = kinds - {"cold", "warm", "batch", "session", "budget",
                           "mutate"}
        if unknown:
            raise ValueError(f"unknown traffic kinds: {sorted(unknown)}")
        if "budget" in kinds and not self.budget_sweep:
            raise ValueError("the 'budget' kind needs a budget_sweep")
        if any(budget <= 0 for budget in self.budget_sweep):
            raise ValueError("budgets must be positive")
        if any(count < 1 for count in self.count_sweep):
            raise ValueError("attraction counts must be at least 1")
        if any(weight < 0 for _, weight in self.mix):
            raise ValueError("mix weights must be non-negative")
        if sum(weight for _, weight in self.mix) <= 0:
            raise ValueError("mix weights must not all be zero")


@dataclass(frozen=True)
class Action:
    """One workload step: a ready-to-send envelope, or a session
    script whose edit targets are resolved at run time."""

    kind: str
    envelope: dict | None = None    # cold / warm / batch; mutate probe
    open_envelope: dict | None = None   # session
    edits: int = 0                      # session
    #: ``mutate`` only: ``{"city", "request_id"}`` -- the concrete
    #: mutation is resolved from the probe build's package at run time.
    mutate: dict | None = None


def _build_payload(city: str, spec_seed: int, group_size: int,
                   request_id: str, budget: float | None = None,
                   attr_count: int = 3) -> dict:
    return {
        "city": city,
        "query": {"counts": {"acco": 1, "trans": 1, "rest": 1,
                             "attr": attr_count},
                  "budget": budget},
        "group_spec": {"size": group_size, "uniform": spec_seed % 2 == 0,
                       "seed": spec_seed},
        "request_id": request_id,
    }


def build_workload(config: LoadgenConfig) -> list[Action]:
    """The deterministic action list for ``config``."""
    rng = random.Random(config.seed)
    kinds = [kind for kind, _ in config.mix]
    weights = [weight for _, weight in config.mix]
    cold_seed = 10_000 + config.seed  # disjoint from the warm pool below

    def attr_for(slot: int) -> int:
        """Attraction count for a deterministic slot.  ``warm`` ties
        the slot to the spec (not the action index) so identical specs
        keep producing identical requests -- the cache-hit guarantee."""
        if not config.count_sweep:
            return 3
        return config.count_sweep[slot % len(config.count_sweep)]

    actions: list[Action] = []
    for index in range(config.actions):
        kind = rng.choices(kinds, weights)[0]
        city = config.cities[index % len(config.cities)]
        rid = f"lg-{config.seed}-{index}"
        if kind == "cold":
            actions.append(Action(kind, envelope={
                "op": "build",
                "request": _build_payload(city, cold_seed,
                                          config.group_size, rid,
                                          attr_count=attr_for(index)),
            }))
            cold_seed += 1
        elif kind == "warm":
            spec = rng.randrange(config.warm_pool)
            actions.append(Action(kind, envelope={
                "op": "build",
                "request": _build_payload(city, spec,
                                          config.group_size, rid,
                                          attr_count=attr_for(spec)),
            }))
        elif kind == "batch":
            requests = []
            for sub in range(config.batch_size):
                sub_city = config.cities[(index + sub) % len(config.cities)]
                spec = rng.randrange(config.warm_pool)
                requests.append(_build_payload(sub_city, spec,
                                               config.group_size,
                                               f"{rid}.{sub}",
                                               attr_count=attr_for(spec)))
            actions.append(Action(kind, envelope={
                "op": "batch", "request": {"requests": requests},
            }))
        elif kind == "budget":
            # A never-repeated spec under a finite budget: a cache miss
            # that must run CI assembly's repair phase wherever the
            # budget binds.
            budget = config.budget_sweep[index % len(config.budget_sweep)]
            actions.append(Action(kind, envelope={
                "op": "build",
                "request": _build_payload(city, cold_seed,
                                          config.group_size, rid,
                                          budget=budget,
                                          attr_count=attr_for(index)),
            }))
            cold_seed += 1
        elif kind == "mutate":
            # A probe build against a warm-pool spec resolves a POI to
            # reprice; the mutation itself is derived from the probe's
            # package at run time (see _mutation_from_probe).
            spec = rng.randrange(config.warm_pool)
            actions.append(Action(kind, envelope={
                "op": "build",
                "request": _build_payload(city, spec,
                                          config.group_size, f"{rid}.probe",
                                          attr_count=attr_for(spec)),
            }, mutate={"city": city, "request_id": rid}))
        else:  # session
            spec = rng.randrange(config.warm_pool)
            actions.append(Action(kind, open_envelope={
                "op": "open_session",
                "request": _build_payload(city, spec,
                                          config.group_size, rid,
                                          attr_count=attr_for(spec)),
            }, edits=config.session_edits))
    if not config.trace:
        return actions * config.passes
    # Tag per (pass, action) -- a replayed action is a *new* request
    # and must carry its own trace id, or the span trees of different
    # passes would collide under one id.
    tagged: list[Action] = []
    for rep in range(config.passes):
        for index, action in enumerate(actions):
            trace_id = f"lg{config.seed:x}-{rep:x}-{index:x}"
            tagged.append(_tag_action(action, trace_id))
    return tagged


def _tag_action(action: Action, trace_id: str) -> Action:
    """A copy of ``action`` whose envelope carries a client trace id."""
    trace = {"trace_id": trace_id}
    if action.envelope is not None:
        return replace(action, envelope=dict(action.envelope, trace=trace))
    return replace(action,
                   open_envelope=dict(action.open_envelope, trace=trace))


# -- reports ------------------------------------------------------------------

@dataclass
class LoadgenReport:
    """What a run observed, aggregated across connections."""

    sent: int = 0
    ok: int = 0
    errors: int = 0
    shed: int = 0
    cached: int = 0
    traced: int = 0
    failed_connections: int = 0
    mutations_sent: int = 0
    stale_epoch_retries: int = 0
    #: Highest epoch observed per city in mutate responses -- epoch
    #: churn the run itself caused (plus any pre-existing epochs).
    epochs_seen: dict = field(default_factory=dict)
    by_kind: Counter = field(default_factory=Counter)
    error_codes: Counter = field(default_factory=Counter)
    error_samples: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def throughput(self) -> float:
        """Responses per second of wall clock."""
        return self.sent / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def epoch_bumps(self) -> int:
        """Total epoch advances observed across cities."""
        return sum(self.epochs_seen.values())

    def observe(self, kind: str, response: dict) -> None:
        self.sent += 1
        self.by_kind[kind] += 1
        if response.get("trace_id") is not None:
            self.traced += 1
        for unit in ([response] if "responses" not in response
                     else response["responses"]):
            error = unit.get("error")
            if error is None:
                self.ok += 1
                if unit.get("cached"):
                    self.cached += 1
            else:
                code = unit.get("code") or "unclassified"
                self.error_codes[code] += 1
                if code == "overloaded":
                    self.shed += 1
                elif code == "stale_epoch":
                    # A session raced a concurrent mutation; the client
                    # reopens against the new epoch.  Expected churn
                    # under a mutating mix, not a server failure.
                    self.stale_epoch_retries += 1
                else:
                    self.errors += 1
                if len(self.error_samples) < 5:
                    self.error_samples.append(error)

    def observe_mutate(self, city: str, response: dict) -> None:
        """Record one ``mutate`` envelope's outcome."""
        self.sent += 1
        self.by_kind["mutate"] += 1
        error = response.get("error")
        if error is None:
            self.ok += 1
            self.mutations_sent += 1
            epoch = response.get("epoch")
            if isinstance(epoch, int):
                self.epochs_seen[city] = max(
                    self.epochs_seen.get(city, 0), epoch)
        else:
            code = response.get("code") or "unclassified"
            self.error_codes[code] += 1
            self.errors += 1
            if len(self.error_samples) < 5:
                self.error_samples.append(error)

    def merge(self, other: "LoadgenReport") -> None:
        self.sent += other.sent
        self.ok += other.ok
        self.errors += other.errors
        self.shed += other.shed
        self.cached += other.cached
        self.traced += other.traced
        self.failed_connections += other.failed_connections
        self.mutations_sent += other.mutations_sent
        self.stale_epoch_retries += other.stale_epoch_retries
        for city, epoch in other.epochs_seen.items():
            self.epochs_seen[city] = max(self.epochs_seen.get(city, 0),
                                         epoch)
        self.by_kind += other.by_kind
        self.error_codes += other.error_codes
        self.error_samples = (self.error_samples
                              + other.error_samples)[:5]

    def summary(self) -> str:
        kinds = ", ".join(f"{kind}={count}"
                          for kind, count in sorted(self.by_kind.items()))
        line = (f"{self.sent} actions ({kinds}); {self.ok} ok responses "
                f"({self.cached} cached), {self.errors} errors, "
                f"{self.shed} shed; {self.wall_s:.2f}s wall "
                f"({self.throughput:.1f} actions/s)")
        if self.traced:
            line += f"; {self.traced} traced"
        if (self.mutations_sent or self.stale_epoch_retries
                or self.epochs_seen):
            line += (f"; live: {self.mutations_sent} mutation(s) applied, "
                     f"{self.epoch_bumps} epoch bump(s) observed, "
                     f"{self.stale_epoch_retries} stale-epoch retries")
        if self.failed_connections:
            line += f"; {self.failed_connections} connection(s) failed"
        if self.error_samples:
            line += f"; first errors: {self.error_samples}"
        return line


# -- execution ----------------------------------------------------------------

def _session_edit_envelopes(open_response: dict, edits: int) -> list[dict]:
    """Concrete REMOVE envelopes against an opened session (resolved
    from the package the server returned)."""
    session_id = open_response.get("session_id")
    package = open_response.get("package")
    if session_id is None or not package:
        return []
    envelopes = []
    for edit in range(edits):
        cis = package["composite_items"]
        ci_index = edit % len(cis)
        pois = cis[ci_index]["pois"]
        if len(pois) <= 1:
            continue  # keep CIs non-empty so later edits stay valid
        victim = pois[-1 - (edit // len(cis)) % len(pois)]
        envelopes.append({
            "op": "customize",
            "request": {"session_id": session_id, "op": "remove",
                        "ci_index": ci_index, "poi_id": victim["id"],
                        "actor": edit % 2},
        })
    return envelopes


def _mutation_from_probe(probe: dict) -> dict | None:
    """A concrete reprice mutation resolved from a probe build's
    package; ``None`` when the probe errored (nothing to mutate)."""
    package = probe.get("package")
    if probe.get("error") is not None or not package:
        return None
    pois = package["composite_items"][-1]["pois"]
    poi = pois[-1]
    # A deterministic, strictly positive nudge: repeated reprices of
    # the same POI keep moving its cost, so every mutate action is a
    # real epoch bump even under warm-pool repeats.
    return {"kind": "reprice_poi", "poi_id": poi["id"],
            "cost": round(float(poi["cost"]) * 1.07 + 0.01, 4)}


#: An async transport: one envelope in, one response dict out.  Both
#: runners reduce to this, so the session state machine exists once.
Send = Callable[[dict], Awaitable[dict]]


async def _run_action(send: Send, action: Action,
                      report: LoadgenReport) -> None:
    if action.mutate is not None:
        # Probe first: the build resolves a concrete POI id the
        # generator could not know, then the mutation reprices it.
        probe = await send(action.envelope)
        report.observe("mutate_probe", probe)
        mutation = _mutation_from_probe(probe)
        if mutation is None:
            return
        city = action.mutate["city"]
        envelope = {"op": "mutate", "request": {
            "city": city, "mutation": mutation,
            "request_id": action.mutate["request_id"],
        }}
        probe_trace = action.envelope.get("trace")
        if probe_trace is not None:
            # A distinct id: the mutate is its own request, not part of
            # the probe's span tree.
            envelope["trace"] = {
                "trace_id": f"{probe_trace['trace_id']}-m"}
        report.observe_mutate(city, await send(envelope))
        return
    if action.envelope is not None:
        report.observe(action.kind, await send(action.envelope))
        return
    opened = await send(action.open_envelope)
    report.observe(action.kind, opened)
    current = opened
    for envelope in _session_edit_envelopes(opened, action.edits):
        response = await send(envelope)
        report.observe("session_edit", response)
        if response.get("error") is not None:
            break
        current = response
    session_id = current.get("session_id")
    if session_id is not None:
        report.observe("session_close", await send({
            "op": "close_session", "request": {"session_id": session_id},
        }))


def run_sync(dispatch: Callable[[str, dict], dict],
             workload: list[Action]) -> LoadgenReport:
    """Drive a dispatch callable (e.g. ``ShardCluster.dispatch``)
    through the workload, one action at a time."""
    report = LoadgenReport()

    async def send(envelope: dict) -> dict:
        return dispatch(envelope.get("op", "build"),
                        envelope.get("request", {}))

    async def main() -> None:
        for action in workload:
            await _run_action(send, action, report)

    started = time.perf_counter()
    asyncio.run(main())
    report.wall_s = time.perf_counter() - started
    return report


async def _connect(host: str, port: int, timeout: float):
    """Open one client connection, retrying while the server boots."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return await asyncio.open_connection(host, port,
                                                 limit=REPLY_LIMIT_BYTES)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            await asyncio.sleep(0.1)


async def _run_connection(host: str, port: int, actions: list[Action],
                          connect_timeout: float) -> LoadgenReport:
    reader, writer = await _connect(host, port, connect_timeout)
    report = LoadgenReport()

    async def send(envelope: dict) -> dict:
        writer.write(json.dumps(envelope).encode("utf-8") + b"\n")
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    # Actions are sequential per connection; concurrency comes from
    # running many connections.
    try:
        for action in actions:
            await _run_action(send, action, report)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return report


async def run_tcp(host: str, port: int, workload: list[Action],
                  connections: int = 2,
                  connect_timeout: float = 30.0) -> LoadgenReport:
    """Run the workload against a live server over ``connections``
    concurrent NDJSON clients (deterministic round-robin split)."""
    connections = max(1, min(connections, len(workload)))
    slices: list[list[Action]] = [[] for _ in range(connections)]
    for index, action in enumerate(workload):
        slices[index % connections].append(action)
    started = time.perf_counter()
    results = await asyncio.gather(*[
        _run_connection(host, port, part, connect_timeout)
        for part in slices
    ], return_exceptions=True)
    merged = LoadgenReport()
    for result in results:
        if isinstance(result, BaseException):
            # One dying connection (server killed mid-burst, reset...)
            # must not discard the other connections' observations.
            merged.failed_connections += 1
            if len(merged.error_samples) < 5:
                merged.error_samples.append(f"connection failed: {result}")
        else:
            merged.merge(result)
    merged.wall_s = time.perf_counter() - started
    return merged


# -- CLI ----------------------------------------------------------------------

def _parse_mix(text: str) -> tuple[tuple[str, float], ...]:
    """``cold=0.5,warm=0.3`` -> ``(("cold", 0.5), ("warm", 0.3))``."""
    mix = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        kind, _, weight = part.partition("=")
        mix.append((kind.strip(), float(weight or 1.0)))
    return tuple(mix)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


async def _fetch_op(host: str, port: int, timeout: float, op: str,
                    request: dict | None = None) -> dict:
    """One envelope against the live server, outside the workload."""
    reader, writer = await _connect(host, port, timeout)
    try:
        envelope: dict = {"op": op}
        if request is not None:
            envelope["request"] = request
        writer.write(json.dumps(envelope).encode("utf-8") + b"\n")
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _fetch_stats(host: str, port: int, timeout: float) -> dict:
    """One ``stats`` envelope against the live server."""
    return await _fetch_op(host, port, timeout, "stats")


def _check_traced(stats: dict) -> list[str]:
    """Problems with the claim "this run was traced end to end" --
    empty when the merged cluster obs and the front-end's own tracer
    both carry finite per-stage percentiles."""
    problems: list[str] = []
    checks = [
        ("cluster", stats.get("obs", {}).get("stages", {}), "queue_wait"),
        ("cluster", stats.get("obs", {}).get("stages", {}), "cache_lookup"),
        ("front-end", stats.get("server", {}).get("obs", {})
                           .get("stages", {}), "dispatch"),
    ]
    for where, table, name in checks:
        if not table:
            problems.append(f"{where} reports no stage histograms "
                            "(server running with --no-obs?)")
            continue
        entry = table.get(name)
        if not entry or not entry.get("count"):
            problems.append(f"{where} stage {name!r} recorded nothing")
            continue
        for pct in ("p50_ms", "p99_ms"):
            value = entry.get(pct)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{where} stage {name!r} {pct} is not "
                                f"finite: {value!r}")
    return problems


def _format_trace(trace: dict) -> str:
    """One slowest-trace entry as an indented span tree."""
    header = (f"trace {trace.get('trace_id')} "
              f"{trace.get('duration_ms', 0.0):.2f}ms "
              f"({trace.get('name')})")
    spans = [s for s in trace.get("spans", ()) if isinstance(s, dict)]
    ids = {span.get("span_id") for span in spans}
    children: dict = {}
    roots = []
    for span in spans:
        parent = span.get("parent_id")
        if parent in ids:
            children.setdefault(parent, []).append(span)
        else:
            # Roots and orphans alike (a worker's portion references a
            # front-end parent that lives in another process's ring).
            roots.append(span)
    lines = [header]

    def walk(span: dict, depth: int) -> None:
        city = f" [{span['city']}]" if span.get("city") else ""
        error = f" ERROR: {span['error']}" if span.get("error") else ""
        lines.append(f"{'  ' * depth}- {span.get('name')} "
                     f"{span.get('duration_ms', 0.0):.2f}ms{city}{error}")
        for child in sorted(children.get(span.get("span_id"), ()),
                            key=lambda s: s.get("start_s", 0.0)):
            walk(child, depth + 1)

    for root in sorted(roots, key=lambda s: s.get("start_s", 0.0)):
        walk(root, 1)
    return "\n".join(lines)


def _slo_verdict(health: dict, p99_ms: float | None,
                 error_rate: float | None, wall_s: float) -> tuple[str, str]:
    """``(state, one-line verdict)`` for a finished run, computed from
    the server's windowed telemetry.

    The cluster's merged windows and the front-end's own (end-to-end
    ``latency:request``, sheds) are merged once more -- both sides are
    epoch-aligned, so the union stays exact -- and evaluated over a
    horizon covering the whole run plus one default window of slack.
    """
    from repro.obs import SLOConfig, SLOMonitor, merge_metrics_snapshots

    merged = merge_metrics_snapshots([
        health.get("windows"),
        health.get("frontend", {}).get("windows"),
    ])
    horizon = max(30.0, wall_s + 2.0 * merged.get("interval_s", 10.0))
    config = SLOConfig(p99_ms=p99_ms, error_rate=error_rate,
                       shed_rate=None, horizon_s=horizon)
    verdict = SLOMonitor(config).evaluate(merged)
    targets = []
    if p99_ms is not None:
        targets.append(f"p99<={p99_ms:g}ms")
    if error_rate is not None:
        targets.append(f"errors<={error_rate:.2%}")
    line = (f"SLO verdict: {verdict['state']} "
            f"({', '.join(targets)} over {horizon:.0f}s; "
            f"{verdict['requests']} windowed requests)")
    for reason in verdict["reasons"]:
        op = f" op={reason['op']}" if "op" in reason else ""
        line += (f"; {reason['severity']}: {reason['slo']}{op} "
                 f"{reason['value']:.4g} > {reason['target']:.4g}")
    return verdict["state"], line


def _check_hydrated(stats: dict) -> list[str]:
    """Problems with the claim "this run was served without a single
    LDA fit" -- empty when the claim holds.  Reads the cluster's merged
    registry counters (populated since the asset store landed)."""
    counters = stats.get("registry", {}).get("counters", {})
    problems = []
    if counters.get("fits", 0):
        problems.append(f"{counters['fits']} LDA fit(s) were paid")
    if counters.get("store_misses", 0):
        problems.append(f"{counters['store_misses']} store miss(es)")
    if not counters.get("store_hits", 0):
        problems.append("no store hits recorded (is --store set on the "
                        "server?)")
    return problems


def loadgen_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service loadgen",
        description="Deterministic NDJSON workload against a running "
                    "serve instance.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--cities", default="paris,barcelona")
    parser.add_argument("--actions", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mix", default=None,
                        help="kind=weight pairs, e.g. 'cold=0.6,warm=0.2,"
                             "batch=0.1,session=0.05,budget=0.05'")
    parser.add_argument("--passes", type=int, default=1,
                        help="replay the action list this many times")
    parser.add_argument("--budgets", default=None, metavar="B1,B2,...",
                        help="budget sweep for the 'budget' traffic kind "
                             "(exercises the assembly repair phase); adds "
                             "the kind to the mix when absent")
    parser.add_argument("--mutate-weight", type=float, default=None,
                        metavar="W",
                        help="add the 'mutate' traffic kind (live city "
                             "mutations bumping epochs) to the mix with "
                             "this weight")
    parser.add_argument("--attr-counts", default=None, metavar="N1,N2,...",
                        help="attraction-count sweep across build actions "
                             "(default: fixed at 3)")
    parser.add_argument("--expect-hydrated", action="store_true",
                        help="after the run, fetch server stats and fail "
                             "unless every city was store-hydrated (zero "
                             "LDA fits, zero store misses)")
    parser.add_argument("--connections", type=int, default=2)
    parser.add_argument("--connect-timeout", type=float, default=30.0,
                        help="retry window while waiting for the server")
    parser.add_argument("--deadline", type=float, default=300.0,
                        help="overall wall-clock bound; a run that "
                             "exceeds it fails (hang detector)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on any non-shed error response")
    parser.add_argument("--trace", action="store_true",
                        help="tag every envelope with a deterministic "
                             "client-side trace id")
    parser.add_argument("--dump-slowest", type=int, default=0, metavar="N",
                        help="after the run, fetch and print the N slowest "
                             "traces as span trees")
    parser.add_argument("--expect-traced", action="store_true",
                        help="after the run, fetch server stats and fail "
                             "unless per-stage latency percentiles "
                             "(queue wait, cache lookup, dispatch) are "
                             "present and finite")
    parser.add_argument("--slo-p99-ms", type=float, default=None,
                        metavar="MS",
                        help="after the run, fetch the server's 'health' "
                             "windows and fail unless every op's windowed "
                             "p99 is within this target")
    parser.add_argument("--slo-error-rate", type=float, default=None,
                        metavar="RATE",
                        help="windowed error-rate ceiling for the post-run "
                             "SLO verdict (e.g. 0.01)")
    args = parser.parse_args(argv)

    cities = tuple(c.strip().lower() for c in args.cities.split(",")
                   if c.strip())

    mix = _parse_mix(args.mix) if args.mix else DEFAULT_MIX
    budgets = _parse_floats(args.budgets) if args.budgets else ()
    if budgets and "budget" not in {kind for kind, _ in mix}:
        mix = mix + (("budget", 0.2),)
    if not budgets and "budget" in {kind for kind, _ in mix}:
        parser.error("a mix containing 'budget' needs --budgets")
    if (args.mutate_weight is not None
            and "mutate" not in {kind for kind, _ in mix}):
        mix = mix + (("mutate", args.mutate_weight),)
    config = LoadgenConfig(
        cities=cities,
        actions=args.actions, seed=args.seed, passes=args.passes,
        mix=mix,
        budget_sweep=budgets,
        count_sweep=_parse_ints(args.attr_counts) if args.attr_counts else (),
        trace=args.trace,
    )
    workload = build_workload(config)

    async def bounded() -> LoadgenReport:
        # The deadline is the hang detector: a server that accepts but
        # never answers must fail this run, not stall it forever.
        return await asyncio.wait_for(
            run_tcp(args.host, args.port, workload,
                    connections=args.connections,
                    connect_timeout=args.connect_timeout),
            timeout=args.deadline,
        )

    try:
        report = asyncio.run(bounded())
    except asyncio.TimeoutError:
        print(f"loadgen exceeded its {args.deadline:.0f}s deadline "
              "(hung server?)", file=sys.stderr)
        return 2
    print(report.summary(), file=sys.stderr)
    status = 0
    if args.check and (report.errors or report.failed_connections):
        print(f"--check failed: {report.errors} error responses, "
              f"{report.failed_connections} failed connections",
              file=sys.stderr)
        status = 1
    if args.expect_hydrated:
        try:
            stats = asyncio.run(_fetch_stats(args.host, args.port,
                                             args.connect_timeout))
        except (OSError, ConnectionError, json.JSONDecodeError) as exc:
            print(f"--expect-hydrated: could not fetch stats: {exc}",
                  file=sys.stderr)
            return 1
        problems = _check_hydrated(stats)
        if problems:
            print("--expect-hydrated failed: " + "; ".join(problems),
                  file=sys.stderr)
            status = 1
        else:
            counters = stats["registry"]["counters"]
            print(f"hydration check ok: {counters.get('store_hits', 0)} "
                  "store hit(s), zero LDA fits", file=sys.stderr)
    if args.expect_traced:
        try:
            stats = asyncio.run(_fetch_stats(args.host, args.port,
                                             args.connect_timeout))
        except (OSError, ConnectionError, json.JSONDecodeError) as exc:
            print(f"--expect-traced: could not fetch stats: {exc}",
                  file=sys.stderr)
            return 1
        problems = _check_traced(stats)
        if problems:
            print("--expect-traced failed: " + "; ".join(problems),
                  file=sys.stderr)
            status = 1
        else:
            stages = stats["obs"]["stages"]
            queue = stages["queue_wait"]
            print(f"trace check ok: queue_wait p50={queue['p50_ms']:.3f}ms "
                  f"p99={queue['p99_ms']:.3f}ms over {queue['count']} "
                  f"request(s); stages: {', '.join(sorted(stages))}",
                  file=sys.stderr)
    if args.slo_p99_ms is not None or args.slo_error_rate is not None:
        try:
            health = asyncio.run(_fetch_op(args.host, args.port,
                                           args.connect_timeout, "health"))
        except (OSError, ConnectionError, json.JSONDecodeError) as exc:
            print(f"SLO verdict: could not fetch health: {exc}",
                  file=sys.stderr)
            return 1
        state, line = _slo_verdict(health, args.slo_p99_ms,
                                   args.slo_error_rate, report.wall_s)
        print(line, file=sys.stderr)
        if state != "ok":
            status = 1
    if args.dump_slowest:
        try:
            dump = asyncio.run(_fetch_op(
                args.host, args.port, args.connect_timeout,
                "trace", {"limit": args.dump_slowest},
            ))
        except (OSError, ConnectionError, json.JSONDecodeError) as exc:
            print(f"--dump-slowest: could not fetch traces: {exc}",
                  file=sys.stderr)
            return 1
        traces = dump.get("traces", [])
        print(f"slowest {len(traces)} trace(s):", file=sys.stderr)
        for trace in traces:
            print(_format_trace(trace), file=sys.stderr)
    return status

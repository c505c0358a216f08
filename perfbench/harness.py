"""Boot the serving stack in-process and drive a seeded workload through it.

The stack is the deployed request path minus the socket and the process
hop: ``PackageServer._process_line`` (parse, admission, the program's
own tracing, response encoding) over a one-shard, thread-backed
``ShardCluster`` built from ``ShardConfig()`` defaults -- Paris at scale
1.0, 120 LDA sweeps, seed 2019 -- with a fresh asset store per boot.

One client sends one request at a time and waits for the reply (a
closed loop: each group waits for its package before acting), so a
latency is service time and throughput is the inverse of mean latency.
Each timed request is followed by slices of fixed reference work, and
the gated figures are given at the reference speed (see ``reference``).
Every response is checked; the first wrong one aborts the run.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import os
import statistics
from pathlib import Path
from time import perf_counter

from perfbench import reference, workloads
from perfbench.ledger import Ledger, layer_metrics, setup_metrics
from repro.obs import ObsConfig
from repro.service.server import PackageServer
from repro.service.shard import ShardCluster, ShardConfig

#: Stack boots per gated run; ``setup_s`` is their median.
SETUPS = 2

#: Untimed units before timing: cold_build pays its one FCM seeding and
#: warms numpy; warm_hit runs one full round of hits; live_edit runs one
#: cycle so the first timed session opens after a mutation.
WARMUP_UNITS = {"cold_build": 8, "warm_hit": workloads.WARM_POOL,
                "live_edit": 1}

#: Units per throughput block: one period of the workload's cadence, so
#: every block sends the same op mix.  Throughput is the median
#: block rate, which a host hiccup in one block cannot move.
BLOCK_UNITS = {"cold_build": 32, "warm_hit": workloads.WARM_POOL,
               "live_edit": 4}

#: Response keys that legitimately differ between a warm hit and the
#: response that primed it.
VOLATILE = ("latency_ms", "cached", "trace_id", "id", "request_id")


class CheckFailed(Exception):
    """A response or the post-run stats disagreed with the client."""


class _Sink:
    """Stands in for the connection's ``StreamWriter``."""

    def __init__(self) -> None:
        self.data = b""

    def is_closing(self) -> bool:
        return False

    def write(self, data: bytes) -> None:
        self.data = data

    async def drain(self) -> None:
        return None


class Stack:
    """One booted serving stack; ``setup_s`` times its construction
    until warmup returns for Paris."""

    def __init__(self, store: Path, obs: ObsConfig | None = None) -> None:
        started = perf_counter()
        self.cluster = ShardCluster(
            shards=1, config=ShardConfig(store_path=str(store), obs=obs),
            cities=[workloads.CITY], use_processes=False)
        self.server = PackageServer(self.cluster, obs=obs)
        warmed = self.cluster.warm([workloads.CITY])
        self.setup_s = perf_counter() - started
        if warmed.get("failed"):
            self.close()
            raise CheckFailed(f"warmup failed: {warmed['failed']}")
        self._lock: asyncio.Lock | None = None

    async def send(self, line: bytes) -> bytes:
        """One request line in, one encoded response line out."""
        if self._lock is None:
            self._lock = asyncio.Lock()
        sink = _Sink()
        self.server._responding += 1  # as handle_connection does
        await self.server._process_line(line, sink, self._lock)
        return sink.data

    def close(self) -> None:
        self.cluster.shutdown()
        self.server.tracer.close()


def _canonical(response: dict) -> bytes:
    return json.dumps({k: v for k, v in response.items()
                       if k not in VOLATILE}, sort_keys=True).encode()


def _ci_ids(package: dict, ci: int) -> list[int]:
    return [p["id"] for p in package["composite_items"][ci]["pois"]]


class Client:
    """Sends one workload's plan through a stack and checks each reply.

    ``samples`` (op bucket -> latencies in ms) collects only while it is
    not ``None``, i.e. during a timed pass.
    """

    BUCKETS = {"build": "build", "open_session": "build",
               "customize": "edit", "mutate": "mutate",
               "close_session": "close"}

    def __init__(self, stack: Stack, workload: str, seed: int) -> None:
        self.stack = stack
        self.workload = workload
        self.units = workloads.units(workload, seed)
        self.pool = (workloads.warm_pool(seed) if workload == "warm_hit"
                     else [])
        self.ctx = workloads.Context(self.pool)
        self.counts = {op: {"sent": 0, "ok": 0, "failed": 0}
                       for op in self.BUCKETS}
        self.primed: dict[int, bytes] = {}
        self.cached = 0
        self.mutations = 0
        self.replays = 0
        self.epoch = 0
        self.samples: dict[str, list[float]] | None = None
        self.blocks: list[tuple[int, float]] = []  # timed units: (requests, ms)
        # timed requests in order: (bucket, ms, the reference slice after it)
        self.trail: list[tuple[str, float, float]] = []
        self._unit = [0, 0.0]
        self.mutate_kinds: list[str] = []
        self.ledger: Ledger | None = None
        self.base: dict = {}
        self._head = hashlib.sha256()
        self._head_left = 200

    # -- sending -----------------------------------------------------------

    async def request(self, envelope: dict) -> dict:
        line = workloads.encode(envelope)
        if self._head_left:
            self._head.update(line)
            self._head_left -= 1
        root = (self.ledger.begin_request(envelope["request"]["request_id"])
                if self.ledger is not None else None)
        started = perf_counter()
        data = await self.stack.send(line)
        ms = (perf_counter() - started) * 1000.0
        if root is not None:
            self.ledger.close(root)
        if self.samples is not None:
            bucket = self.BUCKETS[envelope["op"]]
            self._unit[0] += 1
            self._unit[1] += ms
            self.samples.setdefault(bucket, []).append(ms)
            self.trail.append((bucket, ms, reference.sample_ms(ms)))
            if envelope["op"] == "mutate":
                self.mutate_kinds.append(
                    envelope["request"]["mutation"]["kind"])
        return json.loads(data)

    async def step(self, step: dict) -> None:
        envelope = workloads.resolve(step, self.ctx)
        response = await self.request(envelope)
        self._check(step, envelope, response)

    async def drive(self, seconds: float | None = None,
                    count: int | None = None) -> int:
        """Send whole units until ``seconds`` pass or ``count`` units
        are done; returns the units sent."""
        deadline = perf_counter() + seconds if seconds is not None else None
        sent = 0
        for unit in self.units:
            self._unit = [0, 0.0]
            for step in unit:
                await self.step(step)
            if self.samples is not None:
                self.blocks.append(tuple(self._unit))
            sent += 1
            if count is not None and sent >= count:
                break
            if deadline is not None and perf_counter() >= deadline:
                break
        return sent

    async def prepare(self) -> None:
        """Snapshot the stack's counters, prime warm_hit's pool and send
        the untimed warm-up units."""
        self.base = await self.stats()
        for index, envelope in enumerate(self.pool):
            response = await self.request(envelope)
            self._count("build", response)
            self._check_package(envelope, response)
            self.primed[index] = _canonical(response)
        await self.drive(count=WARMUP_UNITS[self.workload])

    async def stats(self) -> dict:
        return json.loads(await self.stack.send(
            workloads.encode({"op": "stats", "request": {}})))

    @property
    def stream_head(self) -> str:
        """SHA-256 of the first 200 request lines this client sent."""
        return self._head.hexdigest()

    # -- checks ------------------------------------------------------------

    def _fail(self, envelope: dict, why: str) -> None:
        raise CheckFailed(f"{envelope['op']} "
                          f"{envelope['request'].get('request_id')}: {why}")

    def _count(self, op: str, response: dict) -> None:
        counts = self.counts[op]
        counts["sent"] += 1
        if response.get("error") is not None or response.get("code"):
            counts["failed"] += 1
            raise CheckFailed(f"{op} failed: {response.get('code')}: "
                              f"{response.get('error')}")
        counts["ok"] += 1
        if response.get("cached"):
            self.cached += 1

    def _check_package(self, envelope: dict, response: dict) -> None:
        package = response["package"]
        if response["metrics"].get("valid") is not True:
            self._fail(envelope, "package is not valid for its query")
        if len(package["composite_items"]) != 5:
            self._fail(envelope, "package does not hold k=5 CIs")
        budget = envelope["request"]["query"]["budget"]
        if budget is not None:
            for ci in package["composite_items"]:
                if sum(p["cost"] for p in ci["pois"]) > budget + 1e-9:
                    self._fail(envelope, "a CI exceeds the budget")

    def _check(self, step: dict, envelope: dict, response: dict) -> None:
        op = envelope["op"]
        self._count(op, response)
        request = envelope["request"]
        if op in ("build", "open_session"):
            self._check_package(envelope, response)
            if "pool" in step:
                if not response["cached"]:
                    self._fail(envelope, "warm build missed the cache")
                if _canonical(response) != self.primed[step["pool"]]:
                    self._fail(envelope, "warm hit differs from its primer")
            elif response["cached"]:
                self._fail(envelope, "never-repeated spec hit the cache")
            if op == "open_session":
                self.ctx.session_id = response["session_id"]
                self.ctx.package = response["package"]
        elif op == "customize":
            before = _ci_ids(self.ctx.package, request["ci_index"])
            after = _ci_ids(response["package"], request["ci_index"])
            edit = request["op"]
            if edit == "add":
                ok = (request["add_poi_id"] in after
                      and len(after) == len(before) + 1)
            else:
                ok = (request["poi_id"] not in after and len(after)
                      == len(before) - (1 if edit == "remove" else 0))
            if not ok:
                self._fail(envelope, f"{edit} did not take effect")
            self.ctx.package = response["package"]
        elif op == "close_session":
            if len(response["interactions"]) != 3:
                self._fail(envelope, "session did not log its three edits")
            self.ctx.session_id = None
        elif op == "mutate":
            if response["epoch"] != self.epoch + 1:
                self._fail(envelope, f"epoch {response['epoch']} after "
                                     f"{self.epoch}")
            self.epoch = response["epoch"]
            self.mutations += 1
            if self.ctx.session_id is not None:
                self.replays += 1  # the session's next edit replays

    async def verify(self) -> None:
        """The stack's counters must agree with what this client saw."""
        now = await self.stats()

        def delta(section: str, key: str) -> int:
            return (now.get(section, {}).get(key, 0)
                    - self.base.get(section, {}).get(key, 0))

        expected = {("cache", "hits"): self.cached,
                    ("live", "mutations_applied"): self.mutations,
                    ("live", "full_rebuilds"): 0,
                    ("live", "sessions_stale"): 0,
                    ("live", "sessions_replayed"): self.replays}
        for (section, key), want in expected.items():
            got = delta(section, key)
            if got != want:
                raise CheckFailed(f"stats {section}.{key}: server {got}, "
                                  f"client {want}")


# -- figures ------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS in /proc/self/status")


def throughput(client: Client, ms: list[float]) -> float:
    """Median over whole cadence blocks of requests per second of
    service time (the inverse of the block's mean latency); ``ms`` holds
    the timed requests' latencies in the order they were sent."""
    size = BLOCK_UNITS[client.workload]
    counts = [n for n, _ in client.blocks]
    rates, at = [], 0
    for start in range(0, max(1, len(counts) - size + 1), size):
        n = sum(counts[start:start + size])
        rates.append(n * 1000.0 / sum(ms[at:at + n]))
        at += n
    return statistics.median(rates)


def end_to_end(client: Client, setups: list[float], rss: float) -> dict:
    """Every end-to-end figure the workload has: ``{name: (value, unit)}``.

    The gated subset (the metrics every workload has) comes first, then
    the per-op percentiles of the workloads that have those ops, request
    times all at the reference speed (``_norm``); then the request
    figures as the wall clock read them on this host, which are not
    gated.  ``setup_s`` is the wall-clock median boot: a boot is one
    long computation that reference slices cannot interleave with.
    """
    raw = [ms for _, ms, _ in client.trail]
    norm = reference.normalized(raw, [ref for _, _, ref in client.trail])
    by_bucket: dict[str, list[float]] = {}
    for (bucket, _, _), value in zip(client.trail, norm):
        by_bucket.setdefault(bucket, []).append(value)
    out = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_norm_rps": (throughput(client, norm), "1/s"),
        "build_p50_norm_ms": (statistics.median(by_bucket["build"]), "ms"),
        "rss_mb": (rss, "MB"),
    }
    if client.workload != "warm_hit":
        out["build_p90_norm_ms"] = (percentile(by_bucket["build"], 0.9), "ms")
    for bucket in ("edit", "mutate"):
        if by_bucket.get(bucket):
            out[f"{bucket}_p50_norm_ms"] = (
                statistics.median(by_bucket[bucket]), "ms")
            out[f"{bucket}_p90_norm_ms"] = (
                percentile(by_bucket[bucket], 0.9), "ms")
    out.update({
        "wall.throughput_rps": (throughput(client, raw), "1/s"),
        "wall.build_p50_ms": (statistics.median(client.samples["build"]),
                              "ms"),
        "reference.slice_ms": (statistics.median(
            ref for _, _, ref in client.trail), "ms"),
    })
    return out


def mutate_breakdown(client: Client) -> dict:
    """Median mutate latency per kind (explains mutate_p50/p90)."""
    kinds: dict[str, list[float]] = {}
    for kind, ms in zip(client.mutate_kinds, client.samples.get("mutate", ())):
        kinds.setdefault(kind, []).append(ms)
    return {kind: round(statistics.median(v), 3) for kind, v in kinds.items()}


# -- runs ---------------------------------------------------------------------

async def gated_run(workload: str, seed: int, seconds: float,
                    work: Path) -> dict:
    """Boot, warm up, and time ``seconds`` of the workload in ``SETUPS``
    equal segments with another boot (fresh store) between each pair,
    so the timed phase spans the whole run rather than one stretch of
    host speed; then check the stack's counters."""
    stack = Stack(work / "store-0")
    setups = [stack.setup_s]
    try:
        client = Client(stack, workload, seed)
        await client.prepare()
        client.samples = {}
        for boot in range(1, SETUPS + 1):
            gc.collect()
            await client.drive(seconds=seconds / SETUPS)
            if boot < SETUPS:
                extra = Stack(work / f"store-{boot}")
                setups.append(extra.setup_s)
                extra.close()
                del extra
        rss = rss_mb()
        await client.verify()
    finally:
        stack.close()
    return {"client": client, "metrics": end_to_end(client, setups, rss),
            "setups": setups}


async def traced_run(seed: int, seconds: float, work: Path,
                     spans_path: Path) -> dict:
    """The per-layer ledger: one traced boot, then for each workload an
    untraced and a traced pass on the same stack, then the program's
    own tracing on and off over warm hits."""
    ledger = Ledger()
    ledger.install()
    try:
        stack = Stack(work / "store-0")
    finally:
        ledger.remove()
    layers: dict[str, dict] = {"setup": dict(
        setup_metrics(ledger.spans), **{"setup.total_s": (stack.setup_s, "s")})}
    clients = []
    pass_s = max(1.0, seconds / 3.0)
    try:
        for workload in workloads.WORKLOADS:
            client = Client(stack, workload, seed)
            await client.prepare()
            client.samples = {}
            await client.drive(seconds=pass_s)
            untraced = [ms for b in client.samples.values() for ms in b]
            before = await client.stats()
            mark = len(ledger.spans)
            ledger.install()
            client.ledger, client.samples = ledger, {}
            try:
                # At least one whole cadence period, so every op kind
                # the table reports on occurs in the traced pass.
                await client.drive(count=BLOCK_UNITS[workload])
                await client.drive(seconds=pass_s)
            finally:
                ledger.remove()
                client.ledger = None
            traced = [ms for b in client.samples.values() for ms in b]
            after = await client.stats()
            await client.verify()
            delta = {section: {k: after[section][k] - before[section].get(k, 0)
                               for k in after[section]
                               if isinstance(after[section][k], (int, float))}
                     for section in ("assembly", "live")}
            figures = layer_metrics(workload, ledger.spans[mark:], delta)
            figures["trace_overhead_ms"] = (
                statistics.median(traced) - statistics.median(untraced), "ms")
            layers[workload] = figures
            clients.append(client)
    finally:
        stack.close()
    layers["obs"] = {"obs.overhead_ms": (
        await obs_overhead(seed, pass_s, work / "store-0"), "ms")}
    ledger.write(spans_path)
    return {"clients": clients, "layers": layers}


async def obs_overhead(seed: int, seconds: float, store: Path) -> float:
    """Warm-hit p50 with the program's tracing at its default minus the
    same hits with it off, in alternating blocks on two stacks hydrated
    from the same store."""
    stacks: dict[str, Stack] = {}
    try:
        for name, obs in (("on", ObsConfig()),
                          ("off", ObsConfig(enabled=False))):
            stacks[name] = Stack(store, obs)
        clients = {}
        for name, stack in stacks.items():
            clients[name] = Client(stack, "warm_hit", seed)
            await clients[name].prepare()
            clients[name].samples = {}
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            for client in clients.values():
                await client.drive(count=200)
        for client in clients.values():
            await client.verify()
        on, off = (statistics.median(clients[n].samples["build"])
                   for n in ("on", "off"))
        return on - off
    finally:
        for stack in stacks.values():
            stack.close()


# -- diagnostics --------------------------------------------------------------

def _steal_jiffies() -> int:
    with open("/proc/stat", encoding="ascii") as stat:
        fields = stat.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def _calibration_ms() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed."""
    started = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return (perf_counter() - started) * 1000.0


def diagnostics() -> dict:
    """Host-state probe, taken at the start and the end of a run.  These
    explain spreads; no metric is ever scaled by them."""
    return {"steal_jiffies": _steal_jiffies(),
            "loadavg": list(os.getloadavg()),
            "calibration_ms": round(_calibration_ms(), 3)}

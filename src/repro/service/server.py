"""The asyncio NDJSON front-end: ``python -m repro.service serve``.

One :class:`PackageServer` sits in front of a
:class:`~repro.service.shard.ShardCluster` and speaks newline-delimited
JSON over TCP (or, for debugging, stdin/stdout).  Each request line is
an **envelope**::

    {"op": "build", "request": {...BuildRequest wire dict...}, "id": 7}

``op`` is one of :data:`~repro.service.engine.PackageService.DISPATCH_OPS`
(``build`` is the default when omitted); ``request`` is the operation's
wire payload; ``id`` is an optional client correlation value echoed on
the response line.  Responses are one JSON object per line --
:class:`~repro.service.schema.PackageResponse` dicts for package
operations, stats/close-session dicts otherwise -- written by
:func:`encode_line`, which splices a cached package's stored JSON
(:class:`~repro.service.schema.Encoded`) instead of re-encoding it.
Requests on one connection are served **concurrently** (responses may
interleave out of request order; correlate by ``id``/``request_id``).

The front-end owns four serving concerns the cluster does not:

* **Parsing and validation**: unparseable lines and malformed
  envelopes come back as ``bad_request`` error lines -- a client can
  never kill the connection with garbage.
* **Admission control**: at most ``max_inflight`` requests may be in
  flight cluster-wide; beyond it requests are immediately **shed** with
  a structured ``overloaded`` error response (never queued, never
  hung), so saturation degrades into fast, explicit rejections that a
  client can back off on.
* **Tracing** (:mod:`repro.obs`): every accepted request runs under a
  trace -- minted here, or adopted from a ``"trace"`` member of the
  envelope so clients can tag requests with their own ids -- whose
  context rides the wire payload into the shard worker; responses are
  stamped with the ``trace_id``, the ``trace`` op returns the merged
  slowest span trees, and ``stats`` carries the front-end's own stage
  histograms next to the cluster's.
* **Graceful drain**: shutdown stops accepting connections, lets
  in-flight requests finish (bounded by a timeout), then closes
  connections and tears the cluster down.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time

from repro.core.objective import ObjectiveWeights
from repro.obs import (
    ObsConfig,
    ResourceSampler,
    SLOConfig,
    SLOMonitor,
    TraceContext,
    Tracer,
    WindowConfig,
    merge_verdicts,
    stage,
)
from repro.obs.metrics import total
from repro.service.engine import PackageService, tracer_obs
from repro.service.registry import populate_store
from repro.service.schema import (
    Encoded,
    ErrorCode,
    PackageResponse,
    trace_limit,
)
from repro.service.shard import ShardCluster, ShardConfig

#: Default TCP port (no meaning; "GT" on a phone keypad is 48, EDBT 2019 -> 8642).
DEFAULT_PORT = 8642

#: Stream-reader line limit.  A BuildRequest with an inline profile is
#: a few KiB; a large batch envelope tens of KiB -- 4 MiB is far above
#: any legitimate line while still bounding a hostile client's memory.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Client-side bound on one reply line (loadgen, ``repro.obs.top``).
#: ``stats`` and ``health`` carry every process's window rings, far
#: past asyncio's 64 KiB default: a 2-shard cluster's ``stats`` reply
#: measured ~0.4 MB once its rings filled.  A histogram window holds
#: at most 257 buckets (~3 KB), so a full ring stays a few MB per process.
REPLY_LIMIT_BYTES = 64 * 1024 * 1024

#: Bound on response tasks pending per connection.  Beyond it the read
#: loop serves lines inline instead of spawning, so it stops reading --
#: TCP backpressure then reaches the client, and a client that
#: pipelines forever without reading cannot grow server memory.
MAX_PIPELINED_PER_CONNECTION = 128


def encode_line(response: dict) -> bytes:
    """One reply line: exactly ``json.dumps(response).encode() + b"\\n"``.

    A top-level :class:`~repro.service.schema.Encoded` value (a cached
    package or its metrics) is spliced from its stored ``json`` instead
    of being encoded again.  Each run of plain fields is encoded by one
    ``json.dumps`` that also carries the next spliced key, with a ``0``
    stand-in whose closing ``0}`` is cut off; keys, escaping, float
    spelling and order are therefore ``json.dumps``' own.
    """
    parts: list[str] = []
    run: dict = {}
    for key, value in response.items():
        if isinstance(value, Encoded):
            run[key] = 0
            head = json.dumps(run)[:-2]
            parts.append(", " + head[1:] if parts else head)
            parts.append(value.json)
            run = {}
        else:
            run[key] = value
    tail = json.dumps(run)
    if parts:
        tail = ", " + tail[1:] if run else "}"
    parts.append(tail)
    parts.append("\n")
    return "".join(parts).encode()


def _error_line(message: str, code: ErrorCode,
                envelope_id=None, request_id=None) -> dict:
    payload = PackageResponse(city="", error=message, code=code.value,
                              request_id=request_id).to_dict()
    if envelope_id is not None:
        payload["id"] = envelope_id
    return payload


class PackageServer:
    """NDJSON front-end over a shard cluster.

    Args:
        cluster: The serving backend (owns workers, routing, sessions).
        max_inflight: Bound on concurrently served requests; beyond it
            new requests are shed with ``overloaded``.
        obs: Front-end observability -- an :class:`~repro.obs.ObsConfig`
            for the tracer that mints trace ids and times the front-end
            stages into :attr:`windows`.  Shard workers trace separately
            via :attr:`ShardConfig.obs
            <repro.service.shard.ShardConfig.obs>`.
        window: Ring shape for the front-end's own windowed telemetry
            (request rate, shed rate, end-to-end request latency,
            process gauges).  Should match the shards' so the ``health``
            op can reason over one interval.
        slo: Front-end SLO targets; the ``health`` op folds this
            verdict (shed rate, end-to-end latency) into the cluster's.
    """

    def __init__(self, cluster: ShardCluster, max_inflight: int = 64,
                 obs: ObsConfig | None = None,
                 window: WindowConfig | None = None,
                 slo: SLOConfig | None = None) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.cluster = cluster
        self.max_inflight = max_inflight
        self.tracer = (obs or ObsConfig()).make_tracer(
            window=window, meta={"role": "frontend"})
        self.windows = self.tracer.metrics
        self.sampler = ResourceSampler(self.windows)
        self.slo = SLOMonitor(slo)
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._draining = False
        # Mutated only from the event loop thread; no lock needed.
        self._inflight = 0
        # Responses being computed *or still being written*; drain must
        # wait on this, not on _inflight, which drops before the write.
        self._responding = 0
        # A maximum, not an event count, so it stays out of the registry.
        self._peak_inflight = 0

    # -- request path ------------------------------------------------------

    async def handle_line(self, line: str | bytes) -> dict:
        """One request line to one response dict (never raises)."""
        try:
            envelope = json.loads(line)
        except json.JSONDecodeError as exc:
            self.windows.counter_inc("bad_lines")
            return _error_line(f"bad request line: {exc}",
                               ErrorCode.BAD_REQUEST)
        if not isinstance(envelope, dict):
            self.windows.counter_inc("bad_lines")
            return _error_line("request line must be a JSON object",
                               ErrorCode.BAD_REQUEST)
        envelope_id = envelope.get("id")
        op = envelope.get("op", "build")
        payload = envelope.get("request")
        if payload is None:
            # Back-compat with the PR-1 json-lines format: a bare
            # BuildRequest dict (no envelope) still builds.
            payload = {k: v for k, v in envelope.items()
                       if k not in ("op", "id")}
        if not isinstance(op, str) or not isinstance(payload, dict):
            self.windows.counter_inc("bad_lines")
            return _error_line("envelope needs a string 'op' and an "
                               "object 'request'", ErrorCode.BAD_REQUEST,
                               envelope_id)
        if op not in PackageService.DISPATCH_OPS:
            return _error_line(f"unknown operation {op!r}",
                               ErrorCode.BAD_REQUEST, envelope_id,
                               payload.get("request_id"))
        limit = None
        if op == "trace":
            try:
                limit = trace_limit(payload)
            except ValueError as exc:
                return _error_line(str(exc), ErrorCode.BAD_REQUEST,
                                   envelope_id, payload.get("request_id"))

        if self._draining or self._inflight >= self.max_inflight:
            self.windows.counter_inc("shed")
            reason = ("server is draining" if self._draining else
                      f"server overloaded: {self._inflight} requests in "
                      f"flight (limit {self.max_inflight})")
            return _error_line(reason, ErrorCode.OVERLOADED, envelope_id,
                               payload.get("request_id"))

        self._inflight += 1
        self._peak_inflight = max(self._peak_inflight, self._inflight)
        self.windows.counter_inc("requests")
        started = time.perf_counter()
        ctx = self._trace_context(envelope)
        if op == "trace":
            # The cluster must union untrimmed; this front-end applies
            # the client's limit after folding in its own ring below.
            payload = {k: v for k, v in payload.items() if k != "limit"}
        act = None
        try:
            with self.tracer.activate(f"request:{op}", ctx) as act:
                if act is None:
                    response = await asyncio.wrap_future(
                        self.cluster.submit(op, payload)
                    )
                else:
                    # The wire context is cut inside the dispatch stage
                    # so the worker's spans parent under it; its
                    # hand-off stamp is what the worker turns into
                    # queue_wait.
                    with stage("dispatch") as dispatch:
                        payload = dict(payload,
                                       _trace=dispatch.child_wire())
                        response = await asyncio.wrap_future(
                            self.cluster.submit(op, payload)
                        )
        except Exception as exc:  # worker/pool failure: answer, don't hang
            response = _error_line(f"dispatch failed: {exc}",
                                   ErrorCode.FAILED, envelope_id,
                                   payload.get("request_id"))
            self.tracer.error(f"dispatch failed: {exc}",
                              code=ErrorCode.FAILED.value)
        finally:
            self._inflight -= 1
            self.windows.observe("latency:request",
                                 time.perf_counter() - started)
        if op == "trace":
            # The cluster merged the workers' rings; fold in the
            # front-end's own portions of those traces.
            response = dict(response, traces=Tracer.merge_traces(
                [response.get("traces", ()), self.tracer.slowest_traces()],
                limit=32 if limit is None else limit,
            ))
        if op == "stats":
            response = dict(response, server=self.stats())
        if op == "health":
            response = self._fold_health(response)
        if act is not None and response.get("trace_id") != act.trace_id:
            # A shard's reply usually echoes the id already.
            response = dict(response, trace_id=act.trace_id)
        if envelope_id is not None:
            response = dict(response, id=envelope_id)
        return response

    def _trace_context(self, envelope: dict) -> TraceContext | None:
        """The envelope's own ``trace`` member, if it is one
        (client-tagged ids still go through this tracer's sampling
        election unless the client pinned a decision); ``None`` lets
        the activation mint a fresh trace."""
        raw = envelope.get("trace")
        if raw is None or not self.tracer.enabled:
            return None
        ctx = TraceContext.from_wire(raw)
        if ctx is not None and "sampled" not in raw:
            ctx = ctx._replace(sampled=self.tracer.elects(ctx.trace_id))
        return ctx

    async def _process_line(self, line: bytes, writer: asyncio.StreamWriter,
                            write_lock: asyncio.Lock) -> None:
        """Serve one line and write its reply.  The caller increments
        ``_responding`` *before* scheduling this coroutine -- counting
        only from the task body would leave a created-but-unstarted
        task invisible to :meth:`drain`, which could then close the
        writer under a reply that is owed."""
        try:
            data = encode_line(await self.handle_line(line))
            async with write_lock:
                if writer.is_closing():
                    return
                writer.write(data)
                await writer.drain()  # TCP backpressure: slow readers slow us
        except (ConnectionResetError, BrokenPipeError, ConnectionError):
            pass  # client went away mid-response; nothing left to tell it
        finally:
            self._responding -= 1

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.windows.counter_inc("connections_total")
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the stream limit.  NDJSON cannot
                    # resync mid-line, so answer structurally and close
                    # -- but never silently.
                    self.windows.counter_inc("bad_lines")
                    error = _error_line(
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                        ErrorCode.BAD_REQUEST,
                    )
                    async with write_lock:
                        writer.write(encode_line(error))
                        await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self._responding += 1  # see _process_line's docstring
                if len(tasks) >= MAX_PIPELINED_PER_CONNECTION:
                    # Serve inline: the read loop pauses, so the bound
                    # holds and backpressure reaches the client.
                    await self._process_line(line, writer, write_lock)
                    continue
                task = asyncio.create_task(
                    self._process_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # ConnectionError covers reset and broken-pipe alike
        finally:
            # Responses already in flight must go out even when the
            # read loop died -- a reply, once accepted, is owed.
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = DEFAULT_PORT) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)
        (useful with ``port=0``)."""
        self._server = await asyncio.start_server(self.handle_connection,
                                                  host, port,
                                                  limit=MAX_LINE_BYTES)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def drain(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, shed new lines, let
        in-flight requests finish (up to ``timeout``), close
        connections.  The cluster itself is left to the caller."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + timeout
        # Wait for responses to be *written*, not merely computed: an
        # accepted request's reply queued behind a connection's write
        # lock is still owed.
        while self._responding and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for writer in list(self._writers):
            writer.close()
        for writer in list(self._writers):
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        self._writers.clear()

    # -- observability -----------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

    def _sample_gauges(self) -> None:
        """Refresh the front-end's gauges (pull-driven, like the
        engine's: a stats/health poll is the clock)."""
        self.windows.gauge_set("inflight", self._inflight)
        self.windows.gauge_set("connections_open", len(self._writers))
        self.sampler.sample()

    def _fold_health(self, response: dict) -> dict:
        """Fold the front-end's own SLO verdict (shed rate, end-to-end
        request latency, its process gauges) into the cluster's
        ``health`` answer: overall state is the worst of both."""
        self._sample_gauges()
        snapshot = self.windows.snapshot()
        frontend = self.slo.evaluate(snapshot)
        overall = merge_verdicts(response.get("health", {"state": "ok"}),
                                 ("frontend", frontend))
        return dict(response, health=overall,
                    frontend={"state": frontend["state"],
                              "windows": snapshot})

    def stats(self) -> dict:
        """Front-end counters (the cluster's live in its own stats),
        including the front-end's stage histograms and windowed
        telemetry.  The event counts and ``obs`` are all-time totals of
        the front-end's registry series (``accepted`` is ``requests``)."""
        self._sample_gauges()
        snapshot = self.windows.snapshot()
        return {"accepted": total(snapshot, "requests"),
                "shed": total(snapshot, "shed"),
                "bad_lines": total(snapshot, "bad_lines"),
                "peak_inflight": self._peak_inflight,
                "connections_total": total(snapshot, "connections_total"),
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "connections_open": len(self._writers),
                "draining": self._draining,
                "obs": tracer_obs(self.tracer, snapshot),
                "windows": snapshot}


async def serve_stdin(server: PackageServer, stdin=None, stdout=None) -> int:
    """Debug mode: one envelope per stdin line, one response per stdout
    line, served sequentially; returns lines served."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    loop = asyncio.get_running_loop()
    served = 0
    while True:
        line = await loop.run_in_executor(None, stdin.readline)
        if not line:
            return served
        if not line.strip():
            continue
        stdout.write(encode_line(await server.handle_line(line)).decode())
        stdout.flush()
        served += 1


# -- CLI ----------------------------------------------------------------------

def _obs_config(args: argparse.Namespace) -> ObsConfig:
    return ObsConfig(
        enabled=not args.no_obs,
        sample_rate=args.obs_sample,
        slowest=args.obs_slowest,
        log_path=args.obs_log,
    )


def _window_config(args: argparse.Namespace) -> WindowConfig:
    return WindowConfig(interval_s=args.window_interval,
                        slots=args.window_slots)


def _slo_config(args: argparse.Namespace) -> SLOConfig:
    return SLOConfig(
        p99_ms=args.slo_p99_ms,
        error_rate=args.slo_error_rate,
        shed_rate=args.slo_shed_rate,
        cache_hit_floor=args.slo_cache_hit_floor,
        horizon_s=args.slo_horizon,
    )


def _build_cluster(args: argparse.Namespace) -> ShardCluster:
    config = ShardConfig(
        seed=args.seed, scale=args.scale,
        lda_iterations=args.lda_iterations,
        weights=ObjectiveWeights(gamma=args.gamma),
        cache_capacity=args.cache_capacity,
        store_path=args.store,
        max_cities=args.max_cities,
        obs=_obs_config(args),
        window=_window_config(args),
        slo=_slo_config(args),
    )
    cities = [c.strip().lower() for c in args.cities.split(",") if c.strip()]
    return ShardCluster(shards=args.shards, config=config, cities=cities,
                        use_processes=not args.threads)


async def _serve_async(args: argparse.Namespace) -> int:
    cluster = _build_cluster(args)
    server = PackageServer(cluster, max_inflight=args.max_inflight,
                           obs=_obs_config(args),
                           window=_window_config(args),
                           slo=_slo_config(args))
    try:
        if args.store and not args.no_warm and cluster.placement:
            # Pre-populate the persistent store *in the front-end* so
            # every shard's warmup below is a disk load: N workers, one
            # LDA fit total per missing city.  Runs in a thread to keep
            # the (not yet serving) event loop responsive to signals.
            print(f"populating asset store {args.store} ...",
                  file=sys.stderr)
            started = time.perf_counter()
            failed = await asyncio.get_running_loop().run_in_executor(
                None, lambda: populate_store(
                    args.store, sorted(cluster.placement),
                    seed=args.seed, scale=args.scale,
                    lda_iterations=args.lda_iterations,
                ))
            print(f"store ready ({time.perf_counter() - started:.1f}s)",
                  file=sys.stderr)
            for city, reason in failed.items():
                print(f"store populate failed for {city!r}: {reason}",
                      file=sys.stderr)
        if not args.no_warm and cluster.placement:
            print(f"warming {sorted(cluster.placement)} over "
                  f"{cluster.shard_count} shard(s)...", file=sys.stderr)
            started = time.perf_counter()
            warmed = await asyncio.wrap_future(
                cluster.submit("warmup", {"cities": list(cluster.placement)})
            )
            print(f"warm: {', '.join(warmed['cities'])} "
                  f"({time.perf_counter() - started:.1f}s)", file=sys.stderr)
            for city, reason in warmed.get("failed", {}).items():
                print(f"warmup failed for {city!r}: {reason}",
                      file=sys.stderr)
        if args.stdin:
            print("serving NDJSON on stdin/stdout", file=sys.stderr)
            served = await serve_stdin(server)
            print(f"served {served} lines", file=sys.stderr)
        else:
            host, port = await server.start(args.host, args.port)
            print(f"listening on {host}:{port} "
                  f"({cluster.shard_count} shard(s), "
                  f"max {args.max_inflight} in flight)",
                  file=sys.stderr, flush=True)
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except NotImplementedError:  # pragma: no cover - non-unix
                    pass
            await stop.wait()
            print("draining...", file=sys.stderr)
            await server.drain(timeout=args.drain_timeout)
        counters = server.stats()
        print(f"front-end: {counters['accepted']} accepted, "
              f"{counters['shed']} shed, {counters['bad_lines']} bad lines, "
              f"peak in-flight {counters['peak_inflight']}", file=sys.stderr)
    finally:
        cluster.shutdown()
        server.tracer.close()
    return 0


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port, 0 = ephemeral (default: {DEFAULT_PORT})")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker count (default: 2)")
    parser.add_argument("--cities", default="paris,barcelona",
                        help="cities placed round-robin across shards and "
                             "warmed at startup")
    parser.add_argument("--scale", type=float, default=0.35,
                        help="synthetic city scale (default: 0.35)")
    parser.add_argument("--lda-iterations", type=int, default=50)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--gamma", type=float, default=1.0,
                        help="personalization weight of Equation 1")
    parser.add_argument("--cache-capacity", type=int, default=256,
                        help="per-shard package-cache capacity")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="persistent city-asset store; warmup "
                             "populates it once in the front-end and "
                             "every shard worker hydrates from disk "
                             "instead of refitting LDA")
    parser.add_argument("--max-cities", type=int, default=None,
                        help="per-shard LRU bound on resident city "
                             "entries (default: unbounded)")
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="admission-control bound; beyond it requests "
                             "are shed with an 'overloaded' response")
    parser.add_argument("--drain-timeout", type=float, default=10.0)
    parser.add_argument("--threads", action="store_true",
                        help="thread-backed shards instead of processes "
                             "(debugging / constrained environments)")
    parser.add_argument("--stdin", action="store_true",
                        help="serve envelopes on stdin/stdout instead of TCP")
    parser.add_argument("--no-warm", action="store_true",
                        help="skip fitting city assets before accepting "
                             "traffic")
    parser.add_argument("--obs-log", default=None, metavar="PATH",
                        help="NDJSON event log for spans and errors "
                             "('-' = stderr); validate a captured log "
                             "with 'python -m repro.obs.check'")
    parser.add_argument("--obs-sample", type=float, default=1.0,
                        metavar="RATE",
                        help="fraction of traces elected for span "
                             "collection and event logging (stage "
                             "histograms always see every request)")
    parser.add_argument("--obs-slowest", type=int, default=32,
                        help="slowest-trace ring capacity per process "
                             "(the 'trace' op returns the merged rings)")
    parser.add_argument("--no-obs", action="store_true",
                        help="disable tracing entirely")
    parser.add_argument("--window-interval", type=float, default=10.0,
                        metavar="SECONDS",
                        help="windowed-telemetry slot width (default: 10s; "
                             "identical in every process so per-shard "
                             "windows merge exactly)")
    parser.add_argument("--window-slots", type=int, default=60,
                        help="windows retained per series (default: 60 -> "
                             "ten minutes of history at 10s slots)")
    parser.add_argument("--slo-p99-ms", type=float, default=None,
                        metavar="MS",
                        help="rolling-window p99 latency target per op; "
                             "unset = no latency SLO")
    parser.add_argument("--slo-error-rate", type=float, default=0.05,
                        metavar="RATE",
                        help="error-rate ceiling over the SLO horizon "
                             "(default: 0.05)")
    parser.add_argument("--slo-shed-rate", type=float, default=0.10,
                        metavar="RATE",
                        help="overload-shed ceiling over the SLO horizon "
                             "(default: 0.10)")
    parser.add_argument("--slo-cache-hit-floor", type=float, default=None,
                        metavar="RATE",
                        help="windowed cache hit-rate floor; unset = no "
                             "cache SLO")
    parser.add_argument("--slo-horizon", type=float, default=30.0,
                        metavar="SECONDS",
                        help="rolling horizon the 'health' op evaluates "
                             "over (default: 30s)")


def serve_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service serve",
        description="Sharded NDJSON package-serving front-end.",
    )
    add_serve_arguments(parser)
    args = parser.parse_args(argv)
    return asyncio.run(_serve_async(args))

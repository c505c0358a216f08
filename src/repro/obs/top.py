"""Live cluster dashboard: ``python -m repro.obs.top``.

Polls a running ``python -m repro.service serve`` front-end over its
NDJSON protocol -- one ``stats`` and one ``health`` envelope per tick
-- and renders the cluster's *windowed* state: SLO verdict with
reasons, rolling request/shed/error rates, windowed latency
percentiles per op, per-shard health and utilization, and per-process
resource gauges (RSS, CPU burn, GC, sessions, cache).  Because every
number comes from the server's epoch-aligned telemetry windows, the
dashboard shows the last ~30 seconds, not since-boot averages -- a
regression appears within one window and clears when it ends.

``--once`` prints a single snapshot and exits (CI mode); with
``--expect STATE`` the exit code asserts the health verdict is no
worse than ``STATE`` (``ok`` < ``degraded`` < ``breached``), so a
pipeline can gate on cluster health with one line::

    python -m repro.obs.top --once --port 8642 --expect ok

The module deliberately speaks the wire protocol itself (a dozen lines
of asyncio) instead of importing the serving tier: ``repro.obs`` stays
a leaf package the service depends on, never the reverse.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from repro.obs.metrics import (
    window_gauge_last,
    window_gauge_rate,
    window_histogram,
    window_requests,
    window_sum,
)
from repro.obs.slo import worst_state

#: Rolling horizon the dashboard summarizes over.
DEFAULT_HORIZON_S = 30.0

_STATE_GLYPH = {"ok": "OK", "degraded": "DEGRADED", "breached": "BREACHED"}

#: ``repro.service.server.REPLY_LIMIT_BYTES`` (see there), repeated
#: because this module does not import the serving tier.
REPLY_LIMIT_BYTES = 64 * 1024 * 1024


async def _fetch(host: str, port: int, op: str, timeout: float) -> dict:
    """One envelope against the live server (own connection per call:
    the dashboard must keep working across server restarts)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port, limit=REPLY_LIMIT_BYTES),
        timeout)
    try:
        writer.write(json.dumps({"op": op}).encode("utf-8") + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{n:.0f}B"
        n /= 1024.0
    return f"{n:.1f}GiB"  # pragma: no cover - loop always returns


def _fmt_hist(snapshot: dict, name: str, horizon: float) -> str:
    hist = window_histogram(snapshot, name, horizon)
    if not hist.get("count"):
        return "-"
    return (f"p50={hist['p50_ms']:.1f} p90={hist['p90_ms']:.1f} "
            f"p99={hist['p99_ms']:.1f}ms n={hist['count']}")


def render(stats: dict, health: dict, horizon: float = DEFAULT_HORIZON_S,
           now: float | None = None) -> str:
    """The dashboard frame for one (stats, health) poll, as plain text."""
    now = time.time() if now is None else now
    verdict = health.get("health", {})
    state = verdict.get("state", "ok")
    cluster = health.get("windows", {})
    frontend = health.get("frontend", {}).get("windows", {})

    lines = []
    lines.append(f"health: {_STATE_GLYPH.get(state, state)}   "
                 f"(last {horizon:.0f}s; "
                 f"{verdict.get('requests', 0)} requests, "
                 f"{verdict.get('shed', 0)} shed)")
    for reason in verdict.get("reasons", ()):
        source = f" [{reason['source']}]" if "source" in reason else ""
        op = f" op={reason['op']}" if "op" in reason else ""
        lines.append(f"  {reason.get('severity', '?')}: "
                     f"{reason.get('slo')}{op} "
                     f"{reason.get('value', 0.0):.4g} "
                     f"(target {reason.get('target', 0.0):.4g}){source}")

    req_rate = (window_requests(cluster, horizon, now) / horizon
                if horizon > 0 else 0.0)
    shed = window_sum(frontend, "shed", horizon, now)
    errors = window_sum(cluster, "errors", horizon, now)
    hits = window_sum(cluster, "cache_hits", horizon, now)
    misses = window_sum(cluster, "cache_misses", horizon, now)
    lookups = hits + misses
    hit_rate = f"{hits / lookups:.1%}" if lookups else "-"
    lines.append(f"rates:  {req_rate:.1f} req/s   shed {shed}   "
                 f"errors {errors}   cache hit {hit_rate}")

    lines.append("latency (windowed, exact merged):")
    lines.append(f"  request e2e   {_fmt_hist(frontend, 'latency:request', horizon)}")
    for name in sorted(cluster.get("series", {})):
        if name.startswith("latency:"):
            lines.append(f"  {name[8:]:<13} {_fmt_hist(cluster, name, horizon)}")

    rss = window_gauge_last(cluster, "rss_bytes")
    cpu_rate = window_gauge_rate(cluster, "cpu_s")
    sessions = window_gauge_last(cluster, "sessions_open")
    cache_size = window_gauge_last(cluster, "cache_size")
    resident = window_gauge_last(cluster, "store_resident_bytes")
    gc_colls = window_gauge_last(cluster, "gc_collections")
    lines.append(f"shards: rss {_fmt_bytes(rss)}   cpu {cpu_rate:.2f}/s   "
                 f"sessions {sessions:.0f}   cache {cache_size:.0f}   "
                 f"city assets {_fmt_bytes(resident)}   "
                 f"gc {gc_colls:.0f}")
    fe_rss = window_gauge_last(frontend, "rss_bytes")
    inflight = window_gauge_last(frontend, "inflight")
    conns = window_gauge_last(frontend, "connections_open")
    lines.append(f"front:  rss {_fmt_bytes(fe_rss)}   "
                 f"cpu {window_gauge_rate(frontend, 'cpu_s'):.2f}/s   "
                 f"inflight {inflight:.0f}   connections {conns:.0f}")

    shard_states = health.get("shards", ())
    shard_stats = stats.get("shards", ())
    if shard_states:
        cells = []
        for entry in shard_states:
            shard = entry.get("shard")
            util = None
            if isinstance(shard, int) and 0 <= shard < len(shard_stats):
                util = shard_stats[shard].get("utilization")
            util_part = (f" {util:.0%}" if isinstance(util, float) else "")
            cells.append(f"#{shard}={entry.get('state', '?')}{util_part}")
        restarted = stats.get("restarted", 0)
        tail = f"   restarts {restarted}" if restarted else ""
        lines.append("per-shard: " + "  ".join(cells) + tail)

    server = stats.get("server", {})
    if server:
        lines.append(f"totals: {server.get('accepted', 0)} accepted, "
                     f"{server.get('shed', 0)} shed, "
                     f"{server.get('bad_lines', 0)} bad lines, "
                     f"peak inflight {server.get('peak_inflight', 0)}, "
                     f"{stats.get('open_sessions', 0)} sessions open")
    dropped = cluster.get("dropped_late", 0)
    if dropped:
        lines.append(f"warning: {dropped} telemetry sample(s) dropped late")
    return "\n".join(lines)


async def _tick(args: argparse.Namespace) -> tuple[dict, dict]:
    stats, health = await asyncio.gather(
        _fetch(args.host, args.port, "stats", args.timeout),
        _fetch(args.host, args.port, "health", args.timeout),
    )
    return stats, health


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.top",
        description="Live windowed-telemetry dashboard for a running "
                    "'python -m repro.service serve' cluster.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument("--interval", type=float, default=1.0,
                        help="poll period in seconds (default: 1.0)")
    parser.add_argument("--horizon", type=float, default=DEFAULT_HORIZON_S,
                        help="rolling summary horizon (default: 30s)")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-poll connect/read timeout in seconds "
                             "(default: 30)")
    parser.add_argument("--once", action="store_true",
                        help="print one snapshot and exit (CI mode)")
    parser.add_argument("--json", action="store_true",
                        help="with --once: print the raw stats/health "
                             "responses as one JSON object instead of the "
                             "rendered frame")
    parser.add_argument("--expect", choices=("ok", "degraded", "breached"),
                        default=None,
                        help="exit non-zero unless the health state is no "
                             "worse than this")
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error("--interval must be positive")

    async def run() -> int:
        while True:
            try:
                stats, health = await _tick(args)
            except (OSError, ConnectionError, asyncio.TimeoutError,
                    json.JSONDecodeError) as exc:
                print(f"cannot poll {args.host}:{args.port}: {exc}",
                      file=sys.stderr)
                return 2
            state = health.get("health", {}).get("state", "ok")
            if args.once:
                if args.json:
                    print(json.dumps({"stats": stats, "health": health}))
                else:
                    print(render(stats, health, horizon=args.horizon))
                if args.expect is not None and worst_state(
                        state, args.expect) != args.expect:
                    print(f"health is {state!r}, expected at worst "
                          f"{args.expect!r}", file=sys.stderr)
                    return 1
                return 0
            # Live mode: clear the screen per frame (plain ANSI; no
            # curses dependency) and keep polling until interrupted.
            frame = render(stats, health, horizon=args.horizon)
            sys.stdout.write("\x1b[2J\x1b[H")
            sys.stdout.write(f"repro.obs.top  {args.host}:{args.port}  "
                             f"{time.strftime('%H:%M:%S')}\n\n")
            sys.stdout.write(frame + "\n")
            sys.stdout.flush()
            await asyncio.sleep(args.interval)

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())

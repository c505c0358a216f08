"""Repository benchmark: one command, three seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_build --seed 1 --seconds 8 --trace 0

``--trace 0`` boots the serving stack, times ``--seconds`` of the
workload and prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer ledger of all three workloads instead, and writes its spans to
``.perfbench/spans/``.  Human-readable lines come first; the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  A wrong response exits 1; a checkout without
the program's sources exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The end-to-end metrics every workload reports (the gated set).
GATED = ("setup_s", "throughput_norm_rps", "build_p50_norm_ms", "rss_mb")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_build", "warm_hit", "live_edit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _idle_jiffies() -> dict[int, int]:
    idle = {}
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            if line.startswith("cpu") and line[3].isdigit():
                fields = line.split()
                idle[int(fields[0][3:])] = int(fields[4]) + int(fields[5])
    return idle


def _pin() -> int | None:
    """Pin the process to its idlest allowed CPU before numpy loads.

    The client and the shard thread hand each request back and forth;
    across two vCPUs every hand-off is a cross-CPU wake-up whose cost is
    the hypervisor's, not the program's, and it dominated warm-hit
    latency.  The idlest CPU over a 0.2 s look keeps the pin off a CPU
    something else is busy on.  Threads started later inherit the mask.
    """
    try:
        allowed = os.sched_getaffinity(0)
        before = _idle_jiffies()
        time.sleep(0.2)
        after = _idle_jiffies()
        cpu = max(sorted(allowed),
                  key=lambda c: after.get(c, 0) - before.get(c, 0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _table(title: str, rows: dict, targets: dict | None = None) -> None:
    print(f"== {title}")
    for name, (value, unit) in rows.items():
        line = f"  {name:<34} {value:>14.4f} {unit:<6}"
        if targets is not None:
            line += f"  -> {targets.get(name, '')}"
        print(line)


def _totals(clients) -> tuple[int, int, dict]:
    counts: dict = {}
    for client in clients:
        for op, c in client.counts.items():
            mine = counts.setdefault(op, {"sent": 0, "ok": 0, "failed": 0})
            for key in mine:
                mine[key] += c[key]
    return (sum(c["sent"] for c in counts.values()),
            sum(c["failed"] for c in counts.values()), counts)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    cpu = _pin()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    from perfbench.ledger import TARGETS

    work = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    start = harness.diagnostics()
    try:
        if args.trace:
            spans = ROOT / ".perfbench" / "spans" / (
                f"{args.workload}-seed{args.seed}.ndjson")
            result = asyncio.run(harness.traced_run(
                args.seed, args.seconds, work, spans))
            clients = result["clients"]
            metrics = {}
            for group, rows in result["layers"].items():
                _table(f"per-layer: {group}", rows, TARGETS)
                prefix = (f"{group}." if group in
                          ("cold_build", "warm_hit", "live_edit") else "")
                metrics.update({prefix + k: v for k, v in rows.items()})
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            result = asyncio.run(harness.gated_run(
                args.workload, args.seed, args.seconds, work))
            clients = [result["client"]]
            _table(f"end-to-end: {args.workload}", result["metrics"])
            metrics = {k: result["metrics"][k] for k in GATED}
    except harness.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, counts = _totals(clients)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "requests": counts,
        "stream_head_sha256": [c.stream_head for c in clients],
        "diagnostics": {"start": start, "end": harness.diagnostics(),
                        "pinned_cpu": cpu},
    }
    if not args.trace:
        record["setups_s"] = result["setups"]
        record["mutate_p50_ms_by_kind"] = harness.mutate_breakdown(clients[0])
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

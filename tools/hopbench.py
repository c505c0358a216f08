"""Alternating parent/change round trips through a one-shard cluster.

Sends perfbench's ``warm_hit`` and ``cold_build`` build requests through
``ShardCluster.dispatch`` on one shard, with thread workers and with
process workers, on a checkout of the parent and on the working tree in
alternating pairs.  Each run reports the p50 round trip as the wall
clock read it and at perfbench's reference speed (``p50_norm_ms``: the
same reference slices and normalisation as ``perfbench/run.py``).  The
document (the format of the root ``BENCH_hop.json``) holds every run,
summarized as ``tools/benchpair.py`` summarizes a gated metric, with
the bound of perfbench's ``build_p50_norm_ms`` shown for reading.  It
gates nothing.

Usage, from the repository root::

    python3 tools/hopbench.py --parent <parent> --pairs 10 \\
        --what "one line on the change" --out BENCH_hop.json

As in ``tools/benchpair.py``, the parent is a temporary ``git worktree``
unless ``--parent-tree DIR`` names an existing checkout of it.

Every run is a child process of this script started in the tree it
measures, with that tree's ``src/`` and ``perfbench/`` first on its
path, so the parent needs no copy of this file.  Pair ``i`` runs the
parent first when ``i`` is even and the change first when it is odd.
The stack is ``ShardConfig()`` (Paris at scale 1.0, 120 LDA sweeps,
no store), and no process is pinned to a CPU: a process shard's worker
runs beside the front end, as it does when serving.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

from benchpair import (alternating, parent_checkout, run_json, short_rev,
                       summarize)

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("warm_hit", "cold_build")

#: The plans' seed, and the timed requests per run of each workload.
SEED = 1
REQUESTS = {"warm_hit": 2000, "cold_build": 300}
#: Untimed requests after priming, so caches and allocators settle.
WARMUP_REQUESTS = 50


# -- one run (the child) ------------------------------------------------------

def measure(workload: str, processes: bool) -> dict:
    """Time ``REQUESTS[workload]`` builds of ``workload``'s plan on a
    fresh one-shard cluster; raises on an error reply or a warm miss."""
    from perfbench import reference, workloads
    from repro.service.shard import ShardCluster

    pool = workloads.warm_pool(SEED) if workload == "warm_hit" else []
    ctx = workloads.Context(pool)
    steps = (step for unit in workloads.units(workload, SEED)
             for step in unit)
    ms: list[float] = []
    refs: list[float] = []
    started = perf_counter()
    with ShardCluster(shards=1, cities=[workloads.CITY],
                      use_processes=processes) as cluster:
        cluster.warm()
        boot_s = perf_counter() - started
        for envelope in pool:
            _checked(cluster.dispatch("build", envelope["request"]), False)
        plan = islice(steps, WARMUP_REQUESTS + REQUESTS[workload])
        for index, step in enumerate(plan):
            request = workloads.resolve(step, ctx)["request"]
            sent = perf_counter()
            reply = cluster.dispatch("build", request)
            elapsed = (perf_counter() - sent) * 1000.0
            _checked(reply, workload == "warm_hit")
            if index >= WARMUP_REQUESTS:
                ms.append(elapsed)
                refs.append(reference.sample_ms(elapsed))
    return {"p50_ms": statistics.median(ms),
            "p50_norm_ms": statistics.median(reference.normalized(ms, refs)),
            "requests": len(ms), "boot_s": boot_s}


def _checked(reply: dict, cached: bool) -> None:
    if reply.get("error") is not None or not reply.get("package"):
        raise RuntimeError(f"build failed: {reply.get('error')!r}")
    if cached and not reply.get("cached"):
        raise RuntimeError("a warm_hit build missed the cache")


# -- the pairs (the parent process) -------------------------------------------

def run_once(tree: Path, workload: str, processes: bool) -> dict:
    """One child run in ``tree``, with that tree's code first on its path."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree)]))
    return run_json(
        [sys.executable, str(Path(__file__).resolve()), "--measure", workload,
         "--processes", str(int(processes))],
        tree, f"hopbench ({workload}, processes={processes})", env)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="tools/hopbench.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD",
                        help="parent revision (default: HEAD)")
    parser.add_argument("--parent-tree",
                        help="an existing checkout of the parent to use")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--what", default="")
    parser.add_argument("--out")
    parser.add_argument("--measure", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--processes", type=int, choices=(0, 1), default=1,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure is None and args.out is None:
        parser.error("--out is required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure, bool(args.processes))))
        return 0
    # Shown beside each figure for reading; nothing is gated on it.
    bound = next(m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        if m["name"] == "build_p50_norm_ms")
    doc = {
        "what": args.what,
        "parent": short_rev(args.parent),
        "command": "ShardCluster(shards=1, cities=['paris'], "
                   "use_processes=<processes>).dispatch('build', ...) "
                   "over perfbench's <workload> plan",
        "seed": SEED,
        "requests": REQUESTS,
        "warmup_requests": WARMUP_REQUESTS,
        "pairs": args.pairs,
        "order": "alternating: parent first in even-numbered pairs",
        "python": platform.python_version(),
        "host": f"{os.cpu_count()}-CPU {platform.machine()} host, unpinned",
        "rows": [],
    }
    with parent_checkout(args.parent, args.parent_tree) as parent_tree:
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in WORKLOADS:
            for processes in (True, False):
                def run(i: int, side: str) -> dict:
                    result = run_once(trees[side], workload, processes)
                    print(f"{workload} processes={processes} pair {i} "
                          f"{side}: p50 {result['p50_ms']:.4f} ms, norm "
                          f"{result['p50_norm_ms']:.4f} ms",
                          file=sys.stderr, flush=True)
                    return result

                results = alternating(args.pairs, run)
                doc["rows"].append({
                    "workload": workload, "processes": processes,
                    **{figure: summarize(
                        [r[figure] for r in results["parent"]],
                        [r[figure] for r in results["change"]],
                        "lower", bound)
                       for figure in ("p50_ms", "p50_norm_ms")}})
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

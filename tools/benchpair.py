"""Alternating parent/change runs of the repository benchmark.

Runs ``perfbench/run.py`` on a parent revision and on the working tree in
alternating pairs, and writes the pairs with their summary -- medians,
inclusive quartiles, pairwise wins, the parent's interquartile range and
``within_bound`` for every gated metric -- as one JSON document (the
format of the root ``BENCH_perfbench.json``).  The gated metrics, their
direction and their bounds come from ``BENCHMARK.json``; nothing here
restates them.

Usage, from the repository root::

    python3 tools/benchpair.py --parent HEAD --pairs 10 --seconds 5 \\
        --row cold_build:1 --row cold_build:5 --row warm_hit:1 \\
        --row live_edit:1 --trace-rounds 2 \\
        --trace-metric cold_build.assembly.kernel_ms.unbudgeted \\
        --what "one line on the change" --out BENCH_perfbench.json

The parent is checked out into a temporary ``git worktree`` that is
removed afterwards; ``--parent-tree DIR`` uses an existing checkout of
the parent instead.  Pair ``i`` runs the parent first when ``i`` is even
and the change first when it is odd, so slow drift of the host lands on
both sides.  Exits 1 when a run reports a failed or wrong response.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

import numpy

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]


# -- summary arithmetic -------------------------------------------------------

def quartiles(runs: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` with inclusive (linear) interpolation."""
    if len(runs) == 1:
        return runs[0], runs[0], runs[0]
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str,
              bound: float) -> dict:
    """One gated metric over paired runs (``parent[i]`` with
    ``change[i]``).  ``worse_by`` is the change's relative loss against
    the parent median (negative is a gain); ``within_bound`` holds when
    it does not exceed ``bound``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    sides = {}
    for name, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = quartiles(runs)
        sides[name] = {"median": round(median, 4), "q1": round(q1, 4),
                       "q3": round(q3, 4),
                       "runs": [round(v, 4) for v in runs]}
    p_q1, p_median, p_q3 = quartiles(parent)
    ratio = quartiles(change)[1] / p_median
    # Rounded before the bound test, so the document agrees with itself.
    worse_by = round(1.0 - ratio if better == "higher" else ratio - 1.0, 4)
    wins = sum((c > p) if better == "higher" else (c < p)
               for p, c in zip(parent, change))
    return {"better": better, "bound": bound, **sides,
            "change_wins": wins,
            "parent_iqr": round(p_q3 - p_q1, 4),
            "change_vs_parent": round(ratio, 4),
            "worse_by": worse_by,
            "within_bound": worse_by <= bound}


# -- running ------------------------------------------------------------------

def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not JSON")


def run_json(cmd: list[str], tree: Path, what: str,
             env: dict | None = None) -> dict:
    """Run ``cmd`` in ``tree``; its last stdout line, parsed strictly.
    ``json.dumps`` prints a NaN or infinite metric as a bare
    ``NaN``/``Infinity`` that ``json.loads`` would accept, so those
    constants are refused here and the run (``what``) is named."""
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{what} failed in {tree} "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    try:
        return json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        raise RuntimeError(
            f"{what} in {tree}: malformed last line ({exc}): "
            f"{lines[-1][:300]!r}") from None


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``, parsed by
    :func:`run_json`."""
    return run_json(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        tree, f"perfbench (workload {workload}, seed {seed})")


def alternating(pairs: int,
                run: Callable[[int, str], dict]) -> dict[str, list[dict]]:
    """``run(i, side)`` for ``pairs`` pairs, parent first in even-numbered
    pairs; the results per side, in run order."""
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run(i, side))
    return results


def paired_row(trees: dict[str, Path], workload: str, seed: int, pairs: int,
               seconds: float, gated: list[dict]) -> dict:
    """``pairs`` alternating runs per side, summarized per gated metric."""
    def run(i: int, side: str) -> dict:
        result = run_once(trees[side], workload, seed, seconds, 0)
        print(f"{workload} seed {seed} pair {i} {side}: " + ", ".join(
            f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
            for m in gated if m["name"] in result["metrics"]),
            file=sys.stderr, flush=True)
        return result

    results = alternating(pairs, run)
    metrics = {}
    for m in gated:
        name = m["name"]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                for side in results}
        metrics[name] = {"unit": m["unit"], **summarize(
            runs["parent"], runs["change"], m["better"], m["bound"])}
    return {
        "workload": workload, "seeds": [seed], "pairs": pairs,
        "seconds": seconds,
        "order": "alternating: parent first in even-numbered pairs",
        "failed_ops": {s: sum(r["failed"] for r in results[s])
                       for s in results},
        "attempted_ops": {s: sum(r["attempted"] for r in results[s])
                          for s in results},
        "all_correct": all(r["correct"] for s in results
                           for r in results[s]),
        "metrics": metrics,
    }


def traced_rounds(trees: dict[str, Path], rounds: int, seconds: float,
                  names: list[str]) -> dict:
    """``rounds`` traced runs per side, parent first in each round; keeps
    the per-layer metrics named in ``names``."""
    kept: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    for _ in range(rounds):
        for side in ("parent", "change"):
            metrics = run_once(trees[side], "cold_build", 1, seconds,
                               1)["metrics"]
            for name in names:
                if name in metrics:
                    kept[side].setdefault(name, []).append(
                        round(metrics[name]["value"], 4))
    return {"command": " ".join(RUN) + " --workload cold_build --seed 1 "
                       f"--seconds {seconds:g} --trace 1",
            "runs_per_side": rounds,
            "order": f"{rounds} rounds, parent first in each", **kept}


@contextlib.contextmanager
def parent_checkout(rev: str, tree: str | None):
    """The parent's tree: ``tree`` as given, or a temporary detached
    ``git worktree`` of ``rev`` that is removed on exit."""
    if tree is not None:
        yield Path(tree).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        path = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(path), rev],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            yield path
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(path)], cwd=ROOT, check=False,
                           capture_output=True)


def short_rev(rev: str) -> str:
    """``rev`` as a short commit id of this repository."""
    return subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="tools/benchpair.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD",
                        help="parent revision (default: HEAD)")
    parser.add_argument("--parent-tree",
                        help="an existing checkout of the parent to use")
    parser.add_argument("--row", action="append", required=True,
                        metavar="WORKLOAD:SEED",
                        help="one paired row (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace-rounds", type=int, default=0)
    parser.add_argument("--trace-metric", action="append", default=[])
    parser.add_argument("--what", default="")
    parser.add_argument("--claim", default=None,
                        help="JSON object describing the claimed gain")
    parser.add_argument("--host", default=(
        f"{os.cpu_count()}-CPU {platform.machine()} host, each run pinned "
        "by perfbench to the idler CPU"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    doc = {
        "what": args.what,
        "parent": short_rev(args.parent),
        "command": " ".join(RUN) + " --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "claim": json.loads(args.claim) if args.claim else None,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "host": args.host,
        "runs": [],
    }
    with parent_checkout(args.parent, args.parent_tree) as parent_tree:
        trees = {"parent": parent_tree, "change": ROOT}
        for row in args.row:
            workload, _, seed = row.partition(":")
            doc["runs"].append(paired_row(trees, workload, int(seed or 1),
                                          args.pairs, args.seconds, gated))
        if args.trace_rounds:
            doc["trace"] = traced_rounds(trees, args.trace_rounds,
                                         args.seconds, args.trace_metric)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    ok = all(r["all_correct"] and not any(r["failed_ops"].values())
             for r in doc["runs"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

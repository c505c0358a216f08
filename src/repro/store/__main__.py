"""Lifecycle tooling for asset stores: ``python -m repro.store``.

The store itself only ever *adds* entries; this CLI is everything an
operator needs around that -- inventory, integrity, reclamation and
recovery::

    python -m repro.store --root ./assets ls
    python -m repro.store --root ./assets inspect paris-seed2019-...
    python -m repro.store --root ./assets verify [--deep] [NAME ...]
    python -m repro.store --root ./assets prune [--max-entries N]
        [--max-bytes B] [--tmp-ttl SECS] [--dry-run]
    python -m repro.store --root ./assets repair [--dry-run] [NAME ...]

Exit status is non-zero when ``verify`` finds an invalid entry or
``repair`` leaves one unrecoverable, so the commands gate in CI.
``--json`` swaps the human tables for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.store.assets import (
    _JOURNAL,
    _MANIFEST,
    _SEGMENT,
    FORMAT_VERSION,
    AssetStore,
    StoreCorruption,
    read_journal,
)
from repro.store.repair import repair_store
from repro.store.segment import Segment, SegmentError


def _entry_row(store: AssetStore, name: str) -> dict:
    entry = store.root / name
    row = {"name": name, "bytes": 0, "pages": None, "valid": False,
           "city": None, "last_used": None, "problem": "",
           "journal": len(read_journal(entry / _JOURNAL)[0])}
    for child in entry.glob("*"):
        try:
            row["bytes"] += child.stat().st_size
        except OSError:
            pass
    probe = entry / _SEGMENT
    try:
        stat = (probe if probe.is_file() else entry).stat()
        row["last_used"] = max(stat.st_atime, stat.st_mtime)
    except OSError:
        pass
    try:
        manifest = store._manifest(entry, None)
        row["city"] = manifest["key"].get("city")
        row["valid"] = True
    except StoreCorruption as exc:
        row["problem"] = str(exc)
    return row


def _cmd_ls(store: AssetStore, args) -> int:
    rows = [_entry_row(store, name) for name in store.keys()]
    tmp = [p.name for p in store.tmp_dirs()]
    if args.json:
        print(json.dumps({"entries": rows, "tmp": tmp}, indent=2))
        return 0
    now = time.time()
    for row in rows:
        age = (f"{(now - row['last_used']) / 3600.0:8.1f}h"
               if row["last_used"] else "       ?")
        state = "ok     " if row["valid"] else "INVALID"
        print(f"{state} {row['bytes']:>12,} B {age} {row['journal']:>5} "
              f"mut  {row['name']}"
              + (f"  [{row['problem']}]" if row["problem"] else ""))
    for name in tmp:
        print(f"tmp                            {name}")
    print(f"{len(rows)} entr{'y' if len(rows) == 1 else 'ies'}, "
          f"{sum(r['bytes'] for r in rows):,} bytes, "
          f"{len(tmp)} tmp dir(s)")
    return 0


def _cmd_inspect(store: AssetStore, args) -> int:
    entry = store.root / args.name
    if not entry.is_dir():
        print(f"no such entry: {args.name}", file=sys.stderr)
        return 2
    out: dict = {"name": args.name}
    try:
        out["manifest"] = json.loads((entry / _MANIFEST).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        out["manifest_error"] = str(exc)
    try:
        segment = Segment.open(entry / _SEGMENT, verify_pages=False)
        out["segment"] = segment.describe()
        out["damaged_pages"] = segment.verify()
    except (SegmentError, OSError) as exc:
        out["segment_error"] = str(exc)
    if args.json:
        print(json.dumps(out, indent=2))
        return 0
    print(f"entry {args.name}")
    if "manifest_error" in out:
        print(f"  manifest: ERROR {out['manifest_error']}")
    else:
        key = out["manifest"].get("key", {})
        print(f"  key: {key}")
    if "segment_error" in out:
        print(f"  segment: ERROR {out['segment_error']}")
        return 1
    seg = out["segment"]
    print(f"  segment: v{seg['format_version']}, "
          f"{seg['data_pages']} pages x {seg['page_size']} B, "
          f"{seg['file_bytes']:,} B on disk")
    for region in seg["regions"]:
        shape = ("x".join(map(str, region["shape"]))
                 if region.get("shape") is not None else "-")
        print(f"    {region['name']:<28} {region['kind']:<5} "
              f"{region['nbytes']:>12,} B  pages {region['pages'][0]}"
              f"+{region['pages'][1]}  {region.get('dtype', 'json'):<6} "
              f"{shape}")
    if out["damaged_pages"]:
        print(f"  DAMAGED pages: {out['damaged_pages']}")
        return 1
    print("  all pages pass")
    return 0


def _cmd_verify(store: AssetStore, args) -> int:
    names = args.names or store.keys()
    results = []
    status = 0
    for name in names:
        entry = store.root / name
        problem = ""
        try:
            manifest = store._manifest(entry, None)
            if args.deep:
                store._verify_payload(entry, manifest)
            else:
                segment = Segment.open(entry / _SEGMENT, verify_pages=False,
                                       expect_version=FORMAT_VERSION)
                bad = segment.verify()
                if bad:
                    raise StoreCorruption(
                        f"{len(bad)} corrupt page(s): {bad[:8]}")
        except (StoreCorruption, SegmentError, OSError) as exc:
            problem = str(exc)
            status = 1
        results.append({"name": name, "valid": not problem,
                        "problem": problem})
    if args.json:
        print(json.dumps({"entries": results, "deep": args.deep}, indent=2))
    else:
        for row in results:
            print(f"{'ok  ' if row['valid'] else 'FAIL'} {row['name']}"
                  + (f"  [{row['problem']}]" if row["problem"] else ""))
        print(f"{len(results)} entr{'y' if len(results) == 1 else 'ies'} "
              f"checked ({'deep' if args.deep else 'per-page'}), "
              f"{'PROBLEMS' if status else 'all valid'}")
    return status


def _cmd_prune(store: AssetStore, args) -> int:
    report = store.prune(max_entries=args.max_entries,
                         max_bytes=args.max_bytes,
                         tmp_ttl_s=args.tmp_ttl,
                         dry_run=args.dry_run)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    verb = "would remove" if args.dry_run else "removed"
    for kind in ("stale_version", "lru", "tmp"):
        for name in report[kind]:
            print(f"{verb} [{kind}] {name}")
    removed = len(report["stale_version"]) + len(report["lru"])
    print(f"{verb} {removed} entr{'y' if removed == 1 else 'ies'} "
          f"+ {len(report['tmp'])} tmp dir(s), "
          f"{report['freed_bytes']:,} bytes freed; "
          f"{report['kept']} kept ({report['kept_bytes']:,} bytes)")
    return 0


def _cmd_repair(store: AssetStore, args) -> int:
    reports = repair_store(store, args.names or None, dry_run=args.dry_run)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            line = f"{report.status:<13} {report.name}"
            if report.damaged_pages:
                line += (f"  ({report.damaged_pages} bad page(s) in "
                         f"{', '.join(report.damaged_regions)}; salvaged "
                         f"{', '.join(report.salvaged) or 'nothing'}; refit "
                         f"{', '.join(report.refitted) or 'nothing'})")
            if report.detail:
                line += f"  [{report.detail}]"
            print(line)
        counts: dict[str, int] = {}
        for report in reports:
            counts[report.status] = counts.get(report.status, 0) + 1
        print(", ".join(f"{n} {status}" for status, n in sorted(counts.items()))
              or "nothing to repair")
    return 1 if any(r.status == "unrecoverable" for r in reports) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Inspect, verify, prune and repair a city-asset store.")
    parser.add_argument("--root", required=True,
                        help="store directory (the AssetStore root)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ls", help="list entries with size, age and validity")

    p_inspect = sub.add_parser("inspect",
                               help="dump one entry's segment structure")
    p_inspect.add_argument("name")

    p_verify = sub.add_parser("verify",
                              help="check per-page checksums (cheap)")
    p_verify.add_argument("names", nargs="*",
                          help="entries to check (default: all)")
    p_verify.add_argument("--deep", action="store_true",
                          help="also recompute the manifest sha256 digests")

    p_prune = sub.add_parser("prune", help="reclaim disk")
    p_prune.add_argument("--max-entries", type=int, default=None,
                         help="keep at most N current entries (LRU by atime)")
    p_prune.add_argument("--max-bytes", type=int, default=None,
                         help="keep at most B bytes of current entries")
    p_prune.add_argument("--tmp-ttl", type=float, default=3600.0,
                         help="reap .tmp-* dirs older than SECS (default 1h)")
    p_prune.add_argument("--dry-run", action="store_true")

    p_repair = sub.add_parser("repair",
                              help="salvage damaged entries region by region")
    p_repair.add_argument("names", nargs="*",
                          help="entries to repair (default: all)")
    p_repair.add_argument("--dry-run", action="store_true")

    args = parser.parse_args(argv)
    root = Path(args.root)
    if not root.is_dir():
        print(f"no such store root: {root}", file=sys.stderr)
        return 2
    store = AssetStore(root)
    return {"ls": _cmd_ls, "inspect": _cmd_inspect, "verify": _cmd_verify,
            "prune": _cmd_prune, "repair": _cmd_repair}[args.command](store,
                                                                      args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())

"""Structured telemetry for the benchmark suite.

Every benchmark run persists its headline numbers as JSON instead of
scrolling them past in pytest output: one ``BENCH_<name>.json`` file
per bench module under :func:`telemetry_dir` (default
``benchmarks/telemetry/``, overridable with the
``GROUPTRAVEL_BENCH_TELEMETRY_DIR`` environment variable so CI can
collect the files as an artifact).

The schema is deliberately small and shared by every producer::

    {
      "schema_version": 1,
      "bench": "server",
      "records": [
        {"name": "polling_overhead", "unix_ts": 1754550000.0,
         "values": {"overhead": 0.013, "polled_p50_ms": 41.2, ...}},
        ...
      ]
    }

Producers call :func:`emit` -- a load-merge-write: records append to
the existing file, so a pytest run and a standalone ``python
benchmarks/bench_store.py`` run accumulate into the same trajectory.
Writes are atomic (temp file + ``os.replace``), so a crashed bench
never leaves a half-written file for CI to choke on.

``python benchmarks/telemetry.py`` validates files against the schema
(CI runs it after the bench jobs)::

    python benchmarks/telemetry.py                 # validate default dir
    python benchmarks/telemetry.py BENCH_core.json --min-files 1

Only the standard library is imported: the standalone bench gates run
in CI images with nothing but numpy installed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

#: Bump when a record's shape changes incompatibly; the validator
#: rejects files from a different schema generation.
SCHEMA_VERSION = 1

ENV_DIR = "GROUPTRAVEL_BENCH_TELEMETRY_DIR"

_SCALAR_TYPES = (int, float, str, bool, type(None))


def telemetry_dir() -> Path:
    """Where ``BENCH_*.json`` files land (env override for CI)."""
    override = os.environ.get(ENV_DIR)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "telemetry"


def record(name: str, **values) -> dict:
    """One measurement: a name plus flat scalar values (timestamped)."""
    for key, value in values.items():
        if not isinstance(value, _SCALAR_TYPES):
            raise TypeError(
                f"telemetry value {key!r} must be a JSON scalar, "
                f"got {type(value).__name__}")
    return {"name": name, "unix_ts": time.time(), "values": dict(values)}


def emit(bench: str, *records: dict, directory: Path | str | None = None,
         ) -> Path:
    """Append ``records`` to ``BENCH_<bench>.json`` (load-merge-write).

    Returns the path written.  An existing file from an earlier run is
    merged into, not clobbered; an existing file that fails validation
    (foreign schema, hand-edited junk) is replaced rather than
    compounded.
    """
    directory = Path(directory) if directory is not None else telemetry_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{bench}.json"

    payload = {"schema_version": SCHEMA_VERSION, "bench": bench,
               "records": []}
    if path.exists():
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            existing = None
        if isinstance(existing, dict) and not validate_payload(existing,
                                                               bench=bench):
            payload = existing

    payload["records"].extend(records)
    problems = validate_payload(payload, bench=bench)
    if problems:
        raise ValueError(f"refusing to write invalid telemetry: "
                         f"{problems[0]}")

    # Atomic replace: a crash mid-write must not corrupt the file.
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def validate_payload(payload: object, bench: str | None = None) -> list[str]:
    """Schema problems in one parsed telemetry payload ([] = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    if payload.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version must be {SCHEMA_VERSION}, "
                        f"got {payload.get('schema_version')!r}")
    name = payload.get("bench")
    if not isinstance(name, str) or not name:
        problems.append("bench must be a non-empty string")
    elif bench is not None and name != bench:
        problems.append(f"bench {name!r} does not match expected {bench!r}")
    records = payload.get("records")
    if not isinstance(records, list):
        return problems + ["records must be a list"]
    for index, entry in enumerate(records):
        where = f"records[{index}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        if not isinstance(entry.get("name"), str) or not entry["name"]:
            problems.append(f"{where}: name must be a non-empty string")
        ts = entry.get("unix_ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) \
                or not math.isfinite(ts):
            problems.append(f"{where}: unix_ts must be a finite number")
        values = entry.get("values")
        if not isinstance(values, dict):
            problems.append(f"{where}: values must be an object")
            continue
        for key, value in values.items():
            if not isinstance(value, _SCALAR_TYPES):
                problems.append(f"{where}: values[{key!r}] must be a "
                                f"JSON scalar")
            elif isinstance(value, float) and not math.isfinite(value):
                problems.append(f"{where}: values[{key!r}] must be finite")
    return problems


def validate_file(path: Path) -> list[str]:
    """Schema problems in one ``BENCH_*.json`` file ([] = valid)."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        return [f"cannot read: {exc}"]
    except json.JSONDecodeError as exc:
        return [f"not valid JSON: {exc}"]
    expected = None
    if path.name.startswith("BENCH_") and path.name.endswith(".json"):
        expected = path.name[len("BENCH_"):-len(".json")]
    return validate_payload(payload, bench=expected)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/telemetry.py",
        description="Validate benchmark telemetry JSON files.")
    parser.add_argument("paths", nargs="*",
                        help="files to validate (default: every "
                             "BENCH_*.json in the telemetry directory)")
    parser.add_argument("--min-files", type=int, default=0,
                        help="fail unless at least this many telemetry "
                             "files exist (CI: prove the benches wrote)")
    parser.add_argument("--min-records", type=int, default=1,
                        help="fail any file with fewer records than this "
                             "(default: 1)")
    args = parser.parse_args(argv)

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = sorted(telemetry_dir().glob("BENCH_*.json"))

    if len(paths) < args.min_files:
        print(f"FAIL: {len(paths)} telemetry file(s), expected at least "
              f"{args.min_files} (dir: {telemetry_dir()})", file=sys.stderr)
        return 1

    status = 0
    total_records = 0
    for path in paths:
        problems = validate_file(path)
        try:
            n_records = len(json.loads(
                path.read_text(encoding="utf-8")).get("records", []))
        except (OSError, json.JSONDecodeError):
            n_records = 0
        total_records += n_records
        if not problems and n_records < args.min_records:
            problems = [f"only {n_records} record(s), expected at least "
                        f"{args.min_records}"]
        if problems:
            status = 1
            print(f"FAIL {path}:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
        else:
            print(f"ok   {path}: {n_records} record(s)")
    print(f"{len(paths)} file(s), {total_records} record(s), "
          f"{'PROBLEMS' if status else 'all valid'}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())

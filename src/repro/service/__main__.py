"""Service CLI: ``python -m repro.service {serve,loadgen} ...``.

Two entry points share the binary:

* ``python -m repro.service serve`` -- the sharded asyncio NDJSON
  server (TCP or ``--stdin``); see :mod:`repro.service.server`.
* ``python -m repro.service loadgen`` -- the deterministic workload
  generator driving a running server; see :mod:`repro.service.loadgen`.

Without a subcommand the CLI prints its usage and exits 2.  The demo
traffic lives in ``examples/demo_requests.jsonl`` -- spec-based build
envelopes against two cities, including exact repeats, so the output
shows both cold builds and warm-cache hits end to end::

    python -m repro.service serve --stdin --threads \
        < examples/demo_requests.jsonl
    python -m repro.service serve --shards 2 --port 8642
    python -m repro.service serve --shards 2 --store ./assets
    python -m repro.service loadgen --port 8642 --actions 80 --check
    python -m repro.service loadgen --port 8642 --check --expect-hydrated
    python -m repro.service serve --shards 2 --obs-log events.ndjson
    python -m repro.service loadgen --port 8642 --trace --expect-traced \
        --dump-slowest 5
    python -m repro.service serve --slo-p99-ms 250 --slo-shed-rate 0.05
    python -m repro.service loadgen --port 8642 --slo-p99-ms 500 \
        --slo-error-rate 0.01
    python -m repro.obs.top --port 8642            # live dashboard
    python -m repro.obs.top --port 8642 --once --expect ok   # CI gate

Demo traffic uses ``group_spec`` requests -- pure JSON a client can
write without knowing the LDA topic labels the server's item index
discovered.
"""

from __future__ import annotations

import sys

USAGE = ("usage: python -m repro.service {serve,loadgen} [options]\n"
         "  serve    the sharded NDJSON server (TCP, or --stdin)\n"
         "  loadgen  a deterministic workload against a running server\n"
         "'python -m repro.service <command> -h' lists a command's options.")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    command = argv[0] if argv else None
    if command == "serve":
        from repro.service.server import serve_main
        return serve_main(argv[1:])
    if command == "loadgen":
        from repro.service.loadgen import loadgen_main
        return loadgen_main(argv[1:])
    print(USAGE, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark-owned launcher for ``repro.server.CompilationServer``.

Serves one ``CompilationService`` (``ServiceConfig()`` defaults plus a
disk pulse library under ``--cache-dir``) on an ephemeral localhost port
and prints ``{"url": ...}`` as its first stdout line.  The parent drives
it over stdin, one command per line, each answered with ``ok``:

* ``mark`` — start a measured phase: snapshot counters, drop spans;
* ``dump <path>`` — write the phase's counter deltas, spans, per-entry-
  point call counts and the process's peak RSS (``VmHWM``) to ``path``;
* ``quit`` (or end of input) — drain in-flight requests and exit 0.

With ``--trace`` the entry points of :mod:`tracing` are wrapped before
the first request arrives.

    python3 benchmarks/e2e/serve.py --cache-dir DIR [--trace]
"""

from __future__ import annotations

import argparse
import json
import sys

from tracing import Tracer, counter_delta, counter_snapshot


def vmhwm_mb() -> float:
    """Peak resident set size of this process, from ``/proc``."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.server.http import CompilationServer
    from repro.service import CompilationService, ServiceConfig

    tracer = Tracer().install() if args.trace else None
    service = CompilationService(ServiceConfig(cache_dir=args.cache_dir))
    server = CompilationServer(service, host="127.0.0.1", port=0).start()
    print(json.dumps({"url": server.url}), flush=True)
    before = counter_snapshot(service, server)
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "mark":
                before = counter_snapshot(service, server)
                if tracer is not None:
                    tracer.clear()
            elif command == "dump":
                report = {
                    "counters": counter_delta(before, counter_snapshot(service, server)),
                    "vmhwm_mb": vmhwm_mb(),
                    "spans": tracer.spans if tracer is not None else [],
                    "calls": tracer.calls() if tracer is not None else {},
                }
                with open(argument, "w") as out:
                    json.dump(report, out)
            elif command == "quit":
                break
            else:
                print(f"unknown command {command!r}", file=sys.stderr)
                return 2
            print("ok", flush=True)
    finally:
        server.drain(grace_s=30.0)
        server.close()
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

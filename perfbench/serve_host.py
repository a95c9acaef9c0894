"""Traced launcher for ``repro serve``.

Installs span wrappers on the service tier's entry points, then runs the
unchanged ``repro serve`` command line in this process::

    python3 -m perfbench.serve_host --trace-out spans.json -- serve --store-dir D ...

When the server exits (SIGTERM), the spans, counts and loop-lag samples
are written to ``--trace-out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from perfbench.measure import LoopLagProbe
from perfbench.tracing import SpanLog


def install_service_trace(log: SpanLog) -> None:
    from repro.guard.admission import AdmissionGate
    from repro.service.api import ServiceApi
    from repro.service.server import ControlService
    from repro.store.durable import DurableStore
    from repro.store.wal import WriteAheadLog

    def count_status(counts, args, result):
        counts[f"status_{result.status}"] += 1

    def count_admit(counts, args, result):
        if not result.admitted:
            counts["shed"] += 1

    def count_append(counts, args, result):
        record = args[1]
        if record.get("kind") in ("tenant", "slo"):
            counts["write_records"] += 1
        counts["wal_records"] += 1

    log.wrap(ServiceApi, "handle", "http.handle", count_status)
    log.wrap(AdmissionGate, "admit", "guard.admit", count_admit)
    log.wrap(WriteAheadLog, "append", "wal.append", count_append)
    log.wrap(WriteAheadLog, "sync", "wal.fsync")
    log.wrap(DurableStore, "record_cycle", "store.record_cycle")
    log.wrap(DurableStore, "lease_epochs", "store.lease")
    log.wrap(ControlService, "cycle_once", "service.cycle_once")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    import repro.service
    from repro import cli

    log = SpanLog("serve")
    install_service_trace(log)
    probe = LoopLagProbe()
    run_serve = repro.service.run_serve

    async def traced_run_serve(*a, **kw):
        probe.start()
        try:
            return await run_serve(*a, **kw)
        finally:
            await probe.stop()

    # ``repro serve`` looks ``run_serve`` up on the package when it runs.
    repro.service.run_serve = traced_run_serve
    try:
        code = cli.main(serve_args)
    finally:
        with open(args.trace_out + ".tmp", "w") as f:
            json.dump(
                {
                    "spans": log.spans,
                    "counts": dict(log.counts),
                    "lags_ms": probe.lags_ms,
                    "pid": os.getpid(),
                },
                f,
            )
        os.replace(args.trace_out + ".tmp", args.trace_out)
    return code or 0


if __name__ == "__main__":
    sys.exit(main())

"""Stage fleet host: real ``LiveVirtualStage`` clients in one process.

Run by the live workloads as a separate, single-threaded process so that
the control plane's CPU and latency figures are its own cost::

    python3 -m perfbench.fleet --ports 41000 --stages 1000 --seed 7 --churn 1

``--ports`` lists one port for the flat controller, or one per aggregator
(stages are split with the program's ``partition_stages``). Each stage
reports the seeded demand of the epoch it is asked about. When every
stage has been told to shut down, the fleet prints one JSON line with
each stage's applied epoch and limit and its counters, then exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

from perfbench.inputs import DemandSchedule, job_id, stage_id

#: A fleet outliving its benchmark this long exits on its own.
MAX_LIFETIME_S = 170.0


def _stage_class():
    from repro.live.stage_client import LiveVirtualStage

    class SeededStage(LiveVirtualStage):
        """A stage whose demand at epoch ``e`` comes from the schedule."""

        def __init__(self, host, port, index, schedule) -> None:
            super().__init__(host, port, stage_id=stage_id(index), job_id=job_id(index))
            self.index = index
            self.schedule = schedule

        async def _handle(self, message) -> None:
            if message["kind"] == "collect_req":
                self.demand = self.schedule.demand(message["epoch"], self.index)
            await super()._handle(message)

    return SeededStage


def _install_trace(log) -> None:
    """Wrap the stage side of the wire: framed reads and writes."""
    from repro.live import stage_client

    log.wrap(stage_client, "read_message", "fleet.read_message")
    log.wrap(stage_client, "write_message", "fleet.write_message")


async def serve(args) -> dict:
    from repro.core.registry import partition_stages

    ports = [int(p) for p in args.ports.split(",")]
    schedule = DemandSchedule(args.seed, args.stages, args.churn)
    schedule.vectors(0)
    SeededStage = _stage_class()
    ids = [stage_id(i) for i in range(args.stages)]
    if len(ports) == 1:
        homes = [ports[0]] * args.stages
    else:
        homes = [0] * args.stages
        for port, owned in zip(ports, partition_stages(ids, len(ports))):
            for sid in owned:
                homes[int(sid.split("-")[1])] = port
    stages = [
        SeededStage(args.host, homes[i], i, schedule) for i in range(args.stages)
    ]
    # Register one stage at a time, in index order: the controller keeps
    # its sessions in registration order, so every set-up then polls and
    # rules the stages in the same order instead of a connect race's.
    loop = asyncio.get_running_loop()
    deadline = loop.time() + MAX_LIFETIME_S
    tasks = []
    for stage in stages:
        tasks.append(asyncio.create_task(stage.run()))
        while stage.connects == 0:
            if loop.time() > deadline:
                raise TimeoutError(f"{stage.stage_id} never registered")
            await asyncio.sleep(0)
    await asyncio.wait_for(asyncio.gather(*tasks), timeout=deadline - loop.time())
    return {
        "stages": [[s.applied_epoch, s.applied_limit] for s in stages],
        "rules_applied": sum(s.rules_applied for s in stages),
        "rules_stale": sum(s.rules_ignored_stale for s in stages),
        "reconnects": sum(s.reconnects for s in stages),
        "requests_served": sum(s.requests_served for s in stages),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--ports", required=True)
    parser.add_argument("--stages", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--churn", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    log = None
    if args.trace:
        from perfbench.tracing import SpanLog

        log = SpanLog("fleet")
        _install_trace(log)
    result = asyncio.run(serve(args))
    times = os.times()
    result["cpu_s"] = times.user + times.system
    if log is not None:
        result["trace"] = {
            "self_times": log.self_times(),
            "events": log.chrome_events(pid=os.getpid()),
        }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

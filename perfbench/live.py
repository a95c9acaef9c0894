"""Live workloads: ``flat-churn`` and ``hier-steady``.

The control plane (global controller, plus the aggregators on
``hier-steady``) runs in this process; the stage fleet runs in a child
process (:mod:`perfbench.fleet`). Cycles run back to back, one at a time,
so each cycle's allocation can be checked against the oracle afterwards.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import oracle
from perfbench.inputs import DemandSchedule, stage_id
from perfbench.measure import LoopLagProbe, die_with_parent, proc_cpu_s
from perfbench.tracing import SpanLog

#: Cycles run after registration before the window opens. The counts
#: (frames, bytes per cycle) are taken over these, so they cover a fixed
#: epoch range and repeat exactly for a given seed.
WARMUP_CYCLES = 3


@dataclass
class LiveConfig:
    n_stages: int
    n_aggregators: int  # 0 = flat
    churn: float


FLAT_CHURN = LiveConfig(1000, 0, 1.0)
HIER_STEADY = LiveConfig(2000, 4, 0.05)


@dataclass
class RoundResult:
    setup_s: float
    cycles: list
    #: Wall time of each ``run_cycles(1)`` call, timed from outside (ms).
    outer_ms: List[float]
    wall_s: float
    ctrl_cpu_s: float
    #: CPU of the plane process in each cycle (ms), in run order.
    cpu_ms: List[float]
    fleet_cpu_s: float
    counts: Dict[str, float]
    rules_sent: int
    rules_changed: int
    fleet: dict
    failed: int
    attempted: int
    layer: Dict[str, float] = field(default_factory=dict)
    fleet_events: List[dict] = field(default_factory=list)


def install_plane_trace(log: SpanLog) -> None:
    """Wrap the plane process's layer entry points (traced run only)."""
    from repro.core.algorithms.psfa import PSFA
    from repro.core.policies import QoSPolicy
    from repro.live import aggregator_server, controller_server, protocol, sessions

    def count_encode(counts, args, result):
        message = args[1]
        counts["encode_calls"] += 1
        kind = message["kind"]
        if kind == "rule":
            counts["rule_frames"] += 1
            counts["rule_bytes"] += result
        elif kind == "rule_batch":
            counts["rules_batched"] += len(message["rules"])

    def count_expect(counts, args, result):
        counts["frames_rx"] += 1

    log.wrap(protocol, "encode_into", "codec.encode", count_encode)
    log.wrap(sessions, "encode_into", "codec.encode", count_encode)
    log.wrap(protocol, "decode_binary", "codec.decode")
    log.wrap(sessions.Session, "flush", "sessions.flush")
    log.wrap(sessions.Session, "expect", "sessions.expect", count_expect)
    log.wrap(controller_server, "gather_phase", "sessions.gather_phase")
    log.wrap(aggregator_server, "gather_phase", "agg.gather_phase")
    log.wrap(PSFA, "allocate", "brain.allocate")
    if "allocate_axes" in PSFA.__dict__:
        log.wrap(PSFA, "allocate_axes", "brain.allocate")
    log.wrap(QoSPolicy, "weights", "brain.weights")


async def _spawn_fleet(cfg: LiveConfig, ports: List[int], seed: int, trace: bool):
    env = dict(os.environ)
    root = os.getcwd()
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    return await asyncio.create_subprocess_exec(
        sys.executable, "-m", "perfbench.fleet",
        "--ports", ",".join(str(p) for p in ports),
        "--stages", str(cfg.n_stages),
        "--seed", str(seed),
        "--churn", str(cfg.churn),
        "--trace", "1" if trace else "0",
        stdout=asyncio.subprocess.PIPE,
        env=env,
        preexec_fn=die_with_parent,
    )


def _wire_bytes(controller, aggregators) -> Tuple[int, int]:
    """(all plane-side session bytes, bytes aggregators sent upstream)."""
    total = up = 0
    for s in controller.sessions.values():
        total += s.tx_bytes + s.rx_bytes
        up += s.rx_bytes
    for agg in aggregators:
        for s in agg.sessions.values():
            total += s.tx_bytes + s.rx_bytes
    return total, up


async def live_round(
    cfg: LiveConfig,
    seed: int,
    seconds: float,
    log: Optional[SpanLog] = None,
    fleet_cpus: Optional[List[int]] = None,
) -> RoundResult:
    """Set up the plane and fleet, measure ``seconds`` of cycles, check, tear down.

    ``fleet_cpus`` pins the fleet process (the caller pins the plane).
    """
    from repro.core.control_plane import default_policy
    from repro.core.registry import partition_stages
    from repro.live.aggregator_server import LiveAggregator
    from repro.live.controller_server import (
        LiveGlobalController,
        LiveHierGlobalController,
    )
    from repro.obs.spans import SpanTracer

    schedule = DemandSchedule(seed, cfg.n_stages, cfg.churn)
    policy = default_policy(cfg.n_stages)
    agg_tracer = SpanTracer(track="aggregators") if log is not None else None
    launched = time.perf_counter()
    aggregators: List = []
    agg_tasks: List[asyncio.Task] = []
    if cfg.n_aggregators:
        controller = LiveHierGlobalController(
            policy, expected_aggregators=cfg.n_aggregators
        )
        await controller.start()
        ids = [stage_id(i) for i in range(cfg.n_stages)]
        for a, owned in enumerate(partition_stages(ids, cfg.n_aggregators)):
            agg = LiveAggregator(
                f"aggregator-{a:02d}", controller.host, controller.port,
                expected_stages=len(owned),
                span_tracer=agg_tracer.for_track(f"aggregator-{a:02d}")
                if agg_tracer is not None else None,
            )
            await agg.start()
            aggregators.append(agg)
        ports = [a.port for a in aggregators]
    else:
        controller = LiveGlobalController(policy, expected_stages=cfg.n_stages)
        await controller.start()
        ports = [controller.port]
    fleet = await _spawn_fleet(cfg, ports, seed, log is not None)
    if fleet_cpus:
        os.sched_setaffinity(fleet.pid, fleet_cpus)
    probe: Optional[LoopLagProbe] = None
    try:
        agg_tasks = [asyncio.create_task(a.run()) for a in aggregators]
        if cfg.n_aggregators:
            await controller.wait_for_aggregators(timeout_s=60.0)
        else:
            await controller.wait_for_stages(timeout_s=60.0)
        setup_s = time.perf_counter() - launched

        # Warm-up: also the fixed epoch range the exact counts cover.
        await controller.run_cycles(1)
        bytes0, _ = _wire_bytes(controller, aggregators)
        await controller.run_cycles(WARMUP_CYCLES - 1)
        bytes1, _ = _wire_bytes(controller, aggregators)
        counts = {"bytes_per_cycle": (bytes1 - bytes0) / (WARMUP_CYCLES - 1)}

        if log is not None:
            probe = LoopLagProbe()
            probe.start()
            log.clear()
        log_agg = len(agg_tracer.spans) if agg_tracer is not None else 0
        first = len(controller.cycles)
        wire0, up0 = _wire_bytes(controller, aggregators)
        fleet_cpu0 = proc_cpu_s(fleet.pid)
        previous = controller.epoch
        last = dict(controller.last_allocations)
        rules_changed = 0
        wall = ctrl_cpu = 0.0
        outer_ms: List[float] = []
        cpu_ms: List[float] = []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            c0, w0 = time.process_time(), time.perf_counter()
            await controller.run_cycles(1)
            w1 = time.perf_counter()
            cpu_ms.append((time.process_time() - c0) * 1e3)
            ctrl_cpu += cpu_ms[-1] / 1e3
            wall += w1 - w0
            outer_ms.append((w1 - w0) * 1e3)
            # Oracle between cycles: outside the cycle's wall and CPU sums,
            # and nothing runs on the loop meanwhile (no await).
            epoch, alloc = controller.epoch, controller.last_allocations
            mark = len(log.spans) if log is not None else 0
            oracle.check_cycle(epoch, alloc, schedule, policy, previous)
            if log is not None:
                del log.spans[mark:]  # the oracle's own PSFA call is not the brain's
            rules_changed += sum(1 for s, v in alloc.items() if last.get(s) != v)
            previous, last = epoch, alloc
            schedule.forget_before(epoch)
        fleet_cpu = proc_cpu_s(fleet.pid) - fleet_cpu0
        wire1, up1 = _wire_bytes(controller, aggregators)
        cycles = controller.cycles[first:]
        n = len(cycles)
        layer: Dict[str, float] = {}
        if log is not None:
            await probe.stop()
            agg_spans = agg_tracer.spans[log_agg:]
            layer = _plane_layers(log, n, probe.lags_ms, agg_spans)
            log.add_records(agg_spans)
            layer["sessions.bytes_per_cycle"] = (wire1 - wire0) / n
            layer["agg.up_bytes_per_cycle"] = (up1 - up0) / n if aggregators else 0.0
        last_epoch = controller.epoch
        last_alloc = controller.last_allocations
    finally:
        if probe is not None:
            await probe.stop()
        await controller.shutdown()
        if agg_tasks:
            await asyncio.wait(agg_tasks, timeout=30.0)
            for task in agg_tasks:
                task.cancel()
            await asyncio.gather(*agg_tasks, return_exceptions=True)
        try:
            out, _ = await asyncio.wait_for(fleet.communicate(), timeout=60.0)
        finally:
            if fleet.returncode is None:
                fleet.kill()
                await fleet.wait()
    if fleet.returncode != 0:
        raise RuntimeError(f"fleet process exited with {fleet.returncode}")
    fleet_result = json.loads(out.decode().strip().splitlines()[-1])
    oracle.check_fleet(fleet_result["stages"], last_epoch, last_alloc)
    served = fleet_result["requests_served"] // cfg.n_stages
    counts["frames_per_cycle"] = 4 * fleet_result["requests_served"] / served
    counts["rules_applied_per_cycle"] = fleet_result["rules_applied"] / served
    counts["demand_digest"] = schedule.digest()
    failed = sum(1 for c in cycles if c.degraded)
    failed += fleet_result["rules_stale"] + fleet_result["reconnects"]
    events = []
    if log is not None:
        trace = fleet_result.pop("trace")
        events = trace["events"]
        fleet_layer = trace["self_times"]
        layer["fleet.write_us_per_cycle"] = (
            fleet_layer.get("fleet.write_message", {}).get("self_ns", 0) / served / 1e3
        )
    return RoundResult(
        setup_s=setup_s,
        cycles=cycles,
        outer_ms=outer_ms,
        wall_s=wall,
        ctrl_cpu_s=ctrl_cpu,
        cpu_ms=cpu_ms,
        fleet_cpu_s=fleet_cpu,
        counts=counts,
        rules_sent=n * cfg.n_stages,
        rules_changed=rules_changed,
        fleet=fleet_result,
        failed=failed,
        attempted=n,
        layer=layer,
        fleet_events=events,
    )


def _plane_layers(log: SpanLog, n: int, lags_ms: List[float], agg_spans) -> Dict[str, float]:
    from perfbench.measure import median, percentile

    st = log.self_times()

    def per_cycle_us(name: str, key: str = "self_ns") -> float:
        return st.get(name, {}).get(key, 0) / n / 1e3

    c = log.counts
    allocate = per_cycle_us("brain.allocate", "total_ns")
    weights = per_cycle_us("brain.weights", "total_ns")
    rule_frames = c.get("rule_frames", 0)
    agg_collect = [s.dur_s * 1e3 for s in agg_spans if s.name == "collect"]
    agg_enforce = [s.dur_s * 1e3 for s in agg_spans if s.name == "enforce"]
    return {
        "ctrl.loop_lag_ms_p90": percentile(lags_ms, 90),
        "sessions.flush_ms_per_cycle": per_cycle_us("sessions.flush", "total_ns") / 1e3,
        "sessions.reply_wait_ms_per_cycle":
            per_cycle_us("sessions.gather_phase", "total_ns") / 1e3,
        "sessions.frames_per_cycle": (c.get("encode_calls", 0) + c.get("frames_rx", 0)) / n,
        "codec.encode_us_per_cycle": per_cycle_us("codec.encode"),
        "codec.encode_calls_per_cycle": c.get("encode_calls", 0) / n,
        "codec.decode_us_per_cycle": per_cycle_us("codec.decode"),
        "codec.bytes_per_rule": c.get("rule_bytes", 0) / rule_frames if rule_frames else 0.0,
        "agg.collect_ms_p50": median(agg_collect) if agg_collect else 0.0,
        "agg.enforce_ms_p50": median(agg_enforce) if agg_enforce else 0.0,
        "brain.allocate_us_per_cycle": allocate,
        "brain.weights_us_per_cycle": weights,
        "ctrl.rules_sent_per_cycle": (c.get("rules_batched", 0) or rule_frames) / n,
    }

#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload flat-churn --seed 1 --seconds 24 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
The output is a table of every metric with its unit and sample count, the
host stamp and the exact counts, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run alternates
untraced and traced set-ups and the metrics are the per-layer ones. Any
oracle violation exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".perfbench_out"
WORKLOADS = ("flat-churn", "hier-steady", "serve-slo", "sim-hier-10k")
#: An untraced run is split into this many set-ups (the sim: at least).
ROUNDS = 3
#: A traced run alternates untraced and traced set-ups, so that drift in
#: host speed hits both sides of ``trace.overhead_frac`` alike.
TRACE_PLAN = (False, True, False, True)
#: ``cycle_ms_p90`` compares each cycle with this many cycles either side.
TAIL_WINDOW = 10

E2E_UNITS = {
    "setup_s": "s",
    "cycle_ms_p50": "ms",
    "cycle_ms_p90": "ms",
    "ctrl_cpu_ms_per_cycle": "ms",
    "ctrl_rss_mb": "MB",
}

#: Per-layer metrics (traced run) and their units; absent layers read 0.
LAYER_UNITS = {
    "ctrl.collect_ms_p50": "ms",
    "ctrl.compute_ms_p50": "ms",
    "ctrl.enforce_ms_p50": "ms",
    "ctrl.phase_sum_frac": "ratio",
    "ctrl.rules_sent_per_cycle": "count",
    "ctrl.rules_changed_frac": "ratio",
    "ctrl.loop_lag_ms_p90": "ms",
    "ctrl.cpu_util": "ratio",
    "sessions.flush_ms_per_cycle": "ms",
    "sessions.reply_wait_ms_per_cycle": "ms",
    "sessions.frames_per_cycle": "count",
    "sessions.bytes_per_cycle": "bytes",
    "codec.encode_us_per_cycle": "us",
    "codec.encode_calls_per_cycle": "count",
    "codec.decode_us_per_cycle": "us",
    "codec.bytes_per_rule": "bytes",
    "agg.collect_ms_p50": "ms",
    "agg.enforce_ms_p50": "ms",
    "agg.up_bytes_per_cycle": "bytes",
    "fleet.cpu_ms_per_cycle": "ms",
    "fleet.cpu_util": "ratio",
    "fleet.rules_applied": "count",
    "fleet.rules_stale": "count",
    "fleet.reconnects": "count",
    "fleet.write_us_per_cycle": "us",
    "brain.allocate_us_per_cycle": "us",
    "brain.weights_us_per_cycle": "us",
    "brain.gather_us_per_cycle": "us",
    "engine.events_per_cycle": "count",
    "engine.us_per_event": "us",
    "simctrl.compute_wall_ms_per_cycle": "ms",
    "http.handle_ms_p50": "ms",
    "http.status_2xx": "count",
    "http.status_4xx": "count",
    "http.status_429": "count",
    "http.status_503": "count",
    "guard.admit_us_p50": "us",
    "guard.shed": "count",
    "wal.append_us_p50": "us",
    "wal.fsync_ms_p50": "ms",
    "wal.fsyncs_per_write": "ratio",
    "wal.write_records": "count",
    "store.record_cycle_us_p50": "us",
    "store.lease_us_p50": "us",
    "service.cycle_once_ms_p50": "ms",
    "service.cycle_gap_ms_p50": "ms",
    "gen.late_ms_p90": "ms",
    "trace.overhead_frac": "ratio",
    "rest.write_ms_p50": "ms",
    "rest.write_ms_p90": "ms",
    "rest.read_ms_p50": "ms",
    "rest.read_ms_p90": "ms",
    "rest.reaction_ms_p50": "ms",
    "rest.reaction_ms_p90": "ms",
    "sim.wall_ms_per_cycle": "ms",
    "run.failed_frac": "ratio",
}


class Report:
    """What one invocation measured, before it is printed."""

    def __init__(self) -> None:
        #: name -> (value, unit, samples)
        self.rows: Dict[str, Tuple[float, str, int]] = {}
        self.layer: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.counts: Dict[str, object] = {}
        self.flags: List[str] = []
        self.extra: Dict[str, object] = {}
        self.trace_events: List[dict] = []

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.rows[name] = (float(value), unit, int(samples))

    def cycle_rows(self, setups: List[float], cycles_by_round: List[List[float]],
                   cpu_ms: float, cpu_samples: int, rss_mb: float,
                   rss_samples: int = 1) -> None:
        """The ``BENCHMARK.json`` end-to-end rows every workload reports.

        ``cycles_by_round`` holds each set-up's cycle times in run order.
        ``cycle_ms_p90`` is the median cycle time multiplied by the p90 of
        each cycle's ratio to the cycles around it in its set-up
        (:func:`~perfbench.measure.local_ratios`). Drift in host speed moves
        ``cycle_ms_p50`` and leaves the ratios alone, so the p90 shows how
        far the program's slow cycles stand out, not which seconds of the
        run a neighbour on the host was busy. The plain p90 of all cycles
        is printed beside it as ``cycle_ms_p90_pooled``.
        """
        from perfbench.measure import local_ratios, median, percentile

        cycles_ms = [v for r in cycles_by_round for v in r]
        p50 = median(cycles_ms)
        ratios = local_ratios(cycles_by_round, TAIL_WINDOW)
        ratio_p90 = percentile(ratios, 90)
        self.put("setup_s", median(setups), "s", len(setups))
        self.put("cycle_ms_p50", p50, "ms", len(cycles_ms))
        self.put("cycle_ms_p90", p50 * ratio_p90, "ms", len(cycles_ms))
        self.put("cycle_ms_p90_pooled", percentile(cycles_ms, 90), "ms", len(cycles_ms))
        tail = sum(1 for v in ratios if v > ratio_p90)
        if tail < 10:
            self.flags.append(f"cycle_ms_p90 has {tail} samples beyond it (fewer than 10)")
        self.put("ctrl_cpu_ms_per_cycle", cpu_ms, "ms", cpu_samples)
        self.put("ctrl_rss_mb", rss_mb, "MB", rss_samples)

    def timings(self, prefix: str, values: List[float]) -> None:
        """Median and p90 of ``values`` (ms) as ``<prefix>_p50/_p90``."""
        from perfbench.measure import summary

        s = summary(values)
        self.put(f"{prefix}_p50", s["p50"], "ms", s["n"])
        self.put(f"{prefix}_p90", s["p90"], "ms", s["n"])
        if s["p90_tail"] < 10:
            self.flags.append(
                f"{prefix}_p90 has {s['p90_tail']} samples beyond it (fewer than 10)"
            )


# -- workloads ----------------------------------------------------------------
def _saturation(report: Report, ctrl_util: float, fleet_util: float) -> None:
    report.extra["ctrl_cpu_util"] = ctrl_util
    report.extra["fleet_cpu_util"] = fleet_util
    if fleet_util >= 0.9 and ctrl_util < 0.9:
        report.flags.append(
            f"fleet saturated, not the control plane (fleet {fleet_util:.2f}, "
            f"control plane {ctrl_util:.2f}): cycle time is bounded by the fleet"
        )
    elif ctrl_util < 0.9:
        report.flags.append(f"control plane not saturated (cpu/wall {ctrl_util:.2f})")


def _split(rounds: list, plan) -> Tuple[list, list]:
    """(untraced rounds, traced rounds) of a run executed by ``plan``."""
    return ([r for r, t in zip(rounds, plan) if not t],
            [r for r, t in zip(rounds, plan) if t])


def run_live(name: str, seed: int, seconds: float, trace: bool, pins: Dict) -> Report:
    from perfbench import live
    from perfbench.measure import median, proc_peak_rss_mb
    from perfbench.tracing import SpanLog

    cfg = {"flat-churn": live.FLAT_CHURN, "hier-steady": live.HIER_STEADY}[name]
    if pins:
        os.sched_setaffinity(0, pins["plane"])
    report = Report()
    plan = TRACE_PLAN if trace else (False,) * ROUNDS
    rounds, logs = [], []
    for traced in plan:
        log = None
        if traced:
            log = SpanLog("plane")
            live.install_plane_trace(log)
            logs.append(log)
        try:
            rounds.append(asyncio.run(live.live_round(
                cfg, seed, seconds / len(plan), log, pins.get("helper")
            )))
        finally:
            if log is not None:
                log.unwrap_all()
    base, traced_rounds = _split(rounds, plan)
    report.extra["round_cycle_ms_p50"] = [
        median([c.total_s * 1e3 for c in r.cycles]) for r in rounds
    ]
    cpu_ms = [v for r in base for v in r.cpu_ms]
    report.cycle_rows([r.setup_s for r in base],
                      [[c.total_s * 1e3 for c in r.cycles] for r in base],
                      median(cpu_ms), len(cpu_ms), proc_peak_rss_mb(os.getpid()))
    report.attempted = sum(r.attempted for r in rounds)
    report.failed = sum(r.failed for r in rounds)
    wall = sum(r.wall_s for r in base)
    ctrl_util = sum(r.ctrl_cpu_s for r in base) / wall
    fleet_util = sum(r.fleet_cpu_s for r in base) / wall
    _saturation(report, ctrl_util, fleet_util)
    report.counts = dict(rounds[0].counts)
    if trace:
        t = traced_rounds[-1]
        tc = [c for r in traced_rounds for c in r.cycles]
        phases = {p: median([c.phase(p) * 1e3 for c in tc])
                  for p in ("collect", "compute", "enforce")}
        traced_p50 = median([c.total_s * 1e3 for c in tc])
        layer = dict(t.layer)
        layer.update({
            "ctrl.collect_ms_p50": phases["collect"],
            "ctrl.compute_ms_p50": phases["compute"],
            "ctrl.enforce_ms_p50": phases["enforce"],
            # The program's phase records against the cycle timed from
            # outside: time spent outside the three phases shows here.
            "ctrl.phase_sum_frac": traced_p50 / median(
                [v for r in traced_rounds for v in r.outer_ms]),
            "ctrl.rules_changed_frac": t.rules_changed / t.rules_sent,
            "ctrl.cpu_util": t.ctrl_cpu_s / t.wall_s,
            "fleet.cpu_ms_per_cycle": t.fleet_cpu_s / len(t.cycles) * 1e3,
            "fleet.cpu_util": t.fleet_cpu_s / t.wall_s,
            "fleet.rules_applied": t.fleet["rules_applied"],
            "fleet.rules_stale": t.fleet["rules_stale"],
            "fleet.reconnects": t.fleet["reconnects"],
            "trace.overhead_frac": traced_p50 / report.rows["cycle_ms_p50"][0] - 1.0,
        })
        compute_us = sum(c.compute_s for c in t.cycles) / len(t.cycles) * 1e6
        layer["brain.gather_us_per_cycle"] = (
            compute_us - layer["brain.allocate_us_per_cycle"]
            - layer["brain.weights_us_per_cycle"]
        )
        if abs(layer["ctrl.phase_sum_frac"] - 1.0) > 0.05:
            report.flags.append(
                f"collect+compute+enforce cover {layer['ctrl.phase_sum_frac']:.3f}"
                " of the cycle timed from outside (not within 5%)"
            )
        report.layer = layer
        report.trace_events = logs[-1].chrome_events(os.getpid()) + t.fleet_events
    return report


def run_serve(seed: int, seconds: float, trace: bool, pins: Dict) -> Report:
    from perfbench import serve
    from perfbench.measure import median, percentile
    from perfbench.tracing import SpanLog

    if pins:
        os.sched_setaffinity(0, pins["helper"])
    report = Report()
    plan = TRACE_PLAN if trace else (False,) * ROUNDS
    rounds = []
    for i, traced in enumerate(plan):
        workdir = os.path.join(OUT_DIR, f"serve-{os.getpid()}-{i}")
        rounds.append(asyncio.run(
            serve.serve_round(seed, seconds / len(plan), workdir, traced,
                              pins.get("plane"))
        ))
    base, traced_rounds = _split(rounds, plan)
    report.extra["round_cycle_ms_p50"] = [median(r.cycles_ms) for r in rounds]
    n_cycles = sum(len(r.cycles_ms) for r in base)
    report.cycle_rows([r.setup_s for r in base], [r.cycles_ms for r in base],
                      sum(r.ctrl_cpu_s for r in base) / n_cycles * 1e3, n_cycles,
                      median([r.rss_mb for r in base]), len(base))
    report.timings("rest_write_ms", [v for r in base for v in r.write_ms])
    report.timings("rest_read_ms", [v for r in base for v in r.read_ms])
    report.timings("reaction_ms", [v for r in base for v in r.reaction_ms])
    report.attempted = sum(r.attempted for r in rounds)
    report.failed = sum(r.failed for r in rounds)
    late = [v for r in base for v in r.late_ms]
    report.put("gen_late_ms_p90", percentile(late, 90), "ms", len(late))
    report.counts = dict(rounds[0].counts)
    if trace:
        t = traced_rounds[-1]
        layer = serve.service_layers(t.trace, t.window_ns, t.counts["writes"])
        layer["wal.write_records"] = t.trace["counts"].get("write_records", 0)
        traced_p50 = median([v for r in traced_rounds for v in r.cycles_ms])
        layer.update({
            "gen.late_ms_p90": percentile(t.late_ms, 90),
            "trace.overhead_frac": traced_p50 / report.rows["cycle_ms_p50"][0] - 1.0,
            "rest.write_ms_p50": median(t.write_ms),
            "rest.write_ms_p90": percentile(t.write_ms, 90),
            "rest.read_ms_p50": median(t.read_ms),
            "rest.read_ms_p90": percentile(t.read_ms, 90),
            "rest.reaction_ms_p50": median(t.reaction_ms),
            "rest.reaction_ms_p90": percentile(t.reaction_ms, 90),
        })
        report.layer = layer
        log = SpanLog("repro serve")
        log.spans.extend(tuple(s) for s in t.trace["spans"])
        report.trace_events = log.chrome_events(t.trace["pid"])
    return report


def run_sim(seed: int, seconds: float, trace: bool, pins: Dict) -> Report:
    from perfbench import sim
    from perfbench.measure import median, proc_peak_rss_mb
    from perfbench.tracing import SpanLog

    if pins:
        os.sched_setaffinity(0, pins["plane"])
    report = Report()
    rounds, plan, logs = [], [], []
    t0 = time.perf_counter()
    while len(rounds) < (len(TRACE_PLAN) if trace else ROUNDS) or (
        time.perf_counter() - t0 < seconds
    ):
        traced = trace and len(rounds) % 2 == 1
        log = None
        if traced:
            log = SpanLog("sim")
            sim.install_sim_trace(log)
            logs.append(log)
        try:
            rounds.append(sim.sim_round(seed, log))
        finally:
            if log is not None:
                log.unwrap_all()
        plan.append(traced)
    base, traced_rounds = _split(rounds, plan)
    report.extra["round_cycle_ms_p50"] = [median(r.cycle_wall_ms) for r in rounds]
    walls = [v for r in base for v in r.cycle_wall_ms]
    cpu_ms = [v for r in base for v in r.cycle_cpu_ms]
    report.cycle_rows([r.setup_s for r in base], [r.cycle_wall_ms for r in base],
                      median(cpu_ms), len(cpu_ms), proc_peak_rss_mb(os.getpid()))
    report.put("sim_wall_ms_per_cycle", sum(walls) / len(walls), "ms", len(walls))
    report.put("sim_cycle_ms_mean", rounds[0].sim_mean_ms, "ms", len(rounds))
    report.attempted = sim.CYCLES * len(rounds)
    report.failed = 0
    report.counts = {"events_per_round": rounds[0].events,
                     "sim_cycle_ms_mean": rounds[0].sim_mean_ms}
    if trace:
        traced_walls = [v for r in traced_rounds for v in r.cycle_wall_ms]
        layer = dict(traced_rounds[-1].layer)
        layer["sim.wall_ms_per_cycle"] = sum(traced_walls) / len(traced_walls)
        layer["trace.overhead_frac"] = (
            median(traced_walls) / report.rows["cycle_ms_p50"][0] - 1.0
        )
        report.layer = layer
        report.trace_events = logs[-1].chrome_events(os.getpid())
    return report


# -- output -------------------------------------------------------------------
def _print_report(
    workload: str, seed: int, trace: bool, report: Report, pins: Dict
) -> None:
    from perfbench.measure import host_stamp

    host = dict(host_stamp(), pinning=pins)
    print(f"perfbench {workload} seed={seed} trace={int(trace)}")
    print(f"{'metric':40s} {'value':>14s} {'unit':8s} {'samples':>8s}")
    for name, (value, unit, n) in report.rows.items():
        print(f"{name:40s} {value:14.4f} {unit:8s} {n:8d}")
    if trace:
        print(f"{'per-layer metric (traced set-ups)':40s} {'value':>14s} {'unit':8s}")
        for name in LAYER_UNITS:
            print(f"{name:40s} {report.layer.get(name, 0.0):14.4f} {LAYER_UNITS[name]:8s}")
    print("host: " + json.dumps(host))
    print("saturation: " + json.dumps(
        {k: report.extra[k] for k in ("ctrl_cpu_util", "fleet_cpu_util")
         if k in report.extra}))
    print("rounds: " + json.dumps({"cycle_ms_p50": report.extra["round_cycle_ms_p50"]}))
    print("counts: " + json.dumps(report.counts, sort_keys=True))
    for flag in report.flags:
        print("FLAG: " + flag)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as f:
        json.dump({"workload": workload, "seed": seed, "host": host,
                   "rows": report.rows, "layer": report.layer,
                   "counts": report.counts, "flags": report.flags,
                   "extra": report.extra, "attempted": report.attempted,
                   "failed": report.failed}, f, indent=1, default=str)
    if trace and report.trace_events:
        with open(stem + ".perfetto.json", "w") as f:
            json.dump({"traceEvents": report.trace_events,
                       "displayTimeUnit": "ms"}, f)
        print(f"trace: {stem}.perfetto.json (load in ui.perfetto.dev)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import pin_plan
    from perfbench.oracle import OracleError

    trace = bool(args.trace)
    pins = pin_plan()
    try:
        if args.workload in ("flat-churn", "hier-steady"):
            report = run_live(args.workload, args.seed, args.seconds, trace, pins)
        elif args.workload == "serve-slo":
            report = run_serve(args.seed, args.seconds, trace, pins)
        else:
            report = run_sim(args.seed, args.seconds, trace, pins)
    except OracleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    failed_frac = report.failed / report.attempted
    report.put("failed_frac", failed_frac, "ratio", report.attempted)
    if trace:
        report.layer["run.failed_frac"] = failed_frac
    _print_report(args.workload, args.seed, trace, report, pins)
    if trace:
        metrics = {k: {"value": float(report.layer.get(k, 0.0)), "unit": u}
                   for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": report.rows[k][0], "unit": u}
                   for k, u in E2E_UNITS.items()}
    print(json.dumps({"correct": True, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``sim-hier-10k``: the calibrated DES of the hierarchical plane (Fig. 5).

Runs ``run_hierarchical_experiment`` at 10,000 stages / 10 aggregators in
this process, in rounds of a fixed number of simulated cycles, until the
time budget is spent. ``HierarchicalControlPlane.build`` is timed from
outside (set-up), and the global controller's public ``cycles`` list is
swapped for one that stamps the wall clock on every append, which gives
the wall time of each simulated cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench import oracle
from perfbench.tracing import SpanLog

N_STAGES = 10_000
N_AGGREGATORS = 10
#: Simulated cycles per round; the first WARMUP are not timed.
CYCLES = 5
WARMUP = 1


class _StampedCycles(list):
    """A cycles list that records wall and CPU clocks at every append."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.stamps: List[float] = []
        self.cpu_stamps: List[float] = []

    def append(self, item) -> None:
        self.stamps.append(time.perf_counter())
        self.cpu_stamps.append(time.process_time())
        super().append(item)


@dataclass
class SimRound:
    setup_s: float
    cycle_wall_ms: List[float]
    sim_mean_ms: float
    run_wall_s: float
    #: CPU of each timed simulated cycle (ms), like ``cycle_wall_ms``.
    cycle_cpu_ms: List[float]
    events: int
    layer: Dict[str, float] = field(default_factory=dict)


def install_sim_trace(log: SpanLog) -> None:
    """Wrap the brain and the sim controller's compute step (traced run)."""
    from repro.core.algorithms.psfa import PSFA
    from repro.core.controller import GlobalController
    from repro.core.policies import QoSPolicy

    log.wrap(PSFA, "allocate", "brain.allocate")
    log.wrap(QoSPolicy, "weights", "brain.weights")
    log.wrap(GlobalController, "_compute_allocations", "simctrl.compute")


def sim_round(seed: int, log: Optional[SpanLog] = None) -> SimRound:
    from repro.core.control_plane import HierarchicalControlPlane
    from repro.harness.experiment import run_hierarchical_experiment

    built: Dict[str, object] = {}
    build = HierarchicalControlPlane.__dict__["build"]

    def timed_build(cls, *args, **kwargs):
        t0 = time.perf_counter()
        plane = build.__func__(cls, *args, **kwargs)
        built["setup_s"] = time.perf_counter() - t0
        plane.global_controller.cycles = _StampedCycles(plane.global_controller.cycles)
        built["plane"] = plane
        built["cpu_started"] = time.process_time()
        built["started"] = time.perf_counter()
        return plane

    HierarchicalControlPlane.build = classmethod(timed_build)
    try:
        result = run_hierarchical_experiment(
            N_STAGES, N_AGGREGATORS, cycles=CYCLES, seed=seed, warmup=WARMUP
        )
    finally:
        HierarchicalControlPlane.build = build
    plane = built["plane"]
    stamps = [built["started"]] + plane.global_controller.cycles.stamps
    walls = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])][WARMUP:]
    cpu_stamps = [built["cpu_started"]] + plane.global_controller.cycles.cpu_stamps
    cpus = [(b - a) * 1e3 for a, b in zip(cpu_stamps, cpu_stamps[1:])][WARMUP:]
    oracle.check_sim(result.latency.mean_ms)
    layer: Dict[str, float] = {}
    if log is not None:
        st = log.self_times()

        def per_cycle(name: str) -> float:
            return st.get(name, {}).get("total_ns", 0) / CYCLES

        events = plane.env.processed_events
        layer = {
            "brain.allocate_us_per_cycle": per_cycle("brain.allocate") / 1e3,
            "brain.weights_us_per_cycle": per_cycle("brain.weights") / 1e3,
            "simctrl.compute_wall_ms_per_cycle": per_cycle("simctrl.compute") / 1e6,
            "engine.events_per_cycle": events / CYCLES,
            "engine.us_per_event": (stamps[-1] - stamps[0]) * 1e6 / events,
        }
        layer["brain.gather_us_per_cycle"] = (
            layer["simctrl.compute_wall_ms_per_cycle"] * 1e3
            - layer["brain.allocate_us_per_cycle"]
            - layer["brain.weights_us_per_cycle"]
        )
    return SimRound(
        setup_s=built["setup_s"],
        cycle_wall_ms=walls,
        sim_mean_ms=result.latency.mean_ms,
        run_wall_s=sum(walls) / 1e3,
        cycle_cpu_ms=cpus,
        events=plane.env.processed_events,
        layer=layer,
    )

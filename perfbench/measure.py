"""Measurement helpers: percentiles, /proc readings and the host stamp."""

from __future__ import annotations

import asyncio
import ctypes
import os
import platform
import signal
import statistics
import sys
import time
from typing import Dict, List, Sequence

_TICK = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, p90 and the sample count; ``p90_tail`` is how many lie above.

    The guides ask for the highest percentile with at least ten samples
    beyond it; ``p90_tail < 10`` flags a p90 read from too few samples.
    """
    p90 = percentile(values, 90)
    return {
        "p50": median(values),
        "p90": p90,
        "n": len(values),
        "p90_tail": sum(1 for v in values if v > p90),
    }


def local_ratios(series: Sequence[Sequence[float]], half: int) -> List[float]:
    """Each value over the median of its neighbours in its own series.

    The neighbours are up to ``half`` values either side, the value itself
    included. A change in host speed that lasts longer than the window
    scales a value and its neighbours alike and cancels; a value that
    stands out from the cycles around it keeps its ratio.
    """
    out: List[float] = []
    for s in series:
        for i, v in enumerate(s):
            out.append(v / median(s[max(0, i - half):i + half + 1]))
    return out


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def die_with_parent() -> None:
    """``preexec_fn`` for helper processes: SIGTERM them if we die first.

    Linux ``prctl(PR_SET_PDEATHSIG)``; a benchmark killed by its caller's
    timeout must not leave a fleet or a server behind.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


def pin_plan() -> Dict[str, List[int]]:
    """CPUs for the control plane and for its helper process (fleet or client).

    With at least two CPUs the two processes get one each, so the OS does
    not migrate or co-schedule them between runs; otherwise no pinning.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return {}
    return {"plane": [cpus[0]], "helper": [cpus[1]]}


def host_stamp() -> Dict[str, object]:
    """Where the numbers came from: cores, Python, event loop, CPU model."""
    loop = asyncio.new_event_loop()
    try:
        loop_impl = f"{type(loop).__module__}.{type(loop).__name__}"
    finally:
        loop.close()
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "event_loop": loop_impl,
        "cpu_model": cpu_model(),
    }


class LoopLagProbe:
    """Event-loop lag: how late a periodic 10 ms sleep wakes up."""

    def __init__(self, period_s: float = 0.01) -> None:
        self.period_s = period_s
        self.lags_ms: List[float] = []
        self._task = None

    async def _run(self) -> None:
        while True:
            t0 = time.perf_counter()
            await asyncio.sleep(self.period_s)
            self.lags_ms.append((time.perf_counter() - t0 - self.period_s) * 1e3)

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

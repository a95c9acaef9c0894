"""``serve-slo``: ``repro serve`` as shipped, driven over real HTTP.

The server runs in a child process (guards on, WAL-durable, 500 stages
under 4 aggregators, its stage fleet in-process as shipped). This process
is its only REST client: an open loop of seeded tenant re-weights and SLO
writes plus reads, with at most one write and one read in flight. Every
request is timed from when it was due. ``GET /cycles`` reads double as
reaction probes: a re-weight acknowledged during epoch ``E`` has reacted
once a completed cycle with epoch ``> E`` is visible.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import oracle
from perfbench.inputs import RestOp, rest_schedule
from perfbench.measure import (
    die_with_parent,
    median,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
)

N_STAGES = 500
N_AGGREGATORS = 4
N_TENANTS = 4
WRITE_RATE = 8.0
READ_RATE = 16.0
#: A request answered later than this after its due time counts as failed.
LATE_LIMIT_S = 1.0
WARMUP_CYCLES = 3


@dataclass
class ServeRound:
    setup_s: float
    cycles_ms: List[float]
    ctrl_cpu_s: float
    rss_mb: float
    write_ms: List[float]
    read_ms: List[float]
    reaction_ms: List[float]
    late_ms: List[float]
    attempted: int
    failed: int
    counts: Dict[str, float]
    window_ns: Tuple[int, int]
    #: Last acknowledged weight per tenant, and the jobs of acknowledged SLOs.
    acked_weights: Dict[str, float] = field(default_factory=dict)
    acked_slos: Dict[str, List[str]] = field(default_factory=dict)
    trace: Optional[dict] = None


async def http(port: int, method: str, path: str, body: Optional[dict] = None):
    """One HTTP/1.1 request on a fresh connection; returns (status, json)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, text = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    try:
        data = json.loads(text) if text else None
    except ValueError:
        data = None
    return status, data


def _launch_cmd(store_dir: str, ready: str, trace_out: Optional[str]) -> List[str]:
    serve = [
        "serve", "--store-dir", store_dir, "--stages", str(N_STAGES),
        "--aggregators", str(N_AGGREGATORS), "--ready-file", ready, "--json",
    ]
    if trace_out is None:
        return [sys.executable, "-m", "repro"] + serve
    return [sys.executable, "-m", "perfbench.serve_host", "--trace-out", trace_out,
            "--"] + serve


async def _wait_ready(proc, ready: str, timeout_s: float = 60.0) -> dict:
    deadline = time.perf_counter() + timeout_s
    while not os.path.exists(ready):
        if proc.returncode is not None:
            raise RuntimeError(f"repro serve exited early with {proc.returncode}")
        if time.perf_counter() > deadline:
            raise RuntimeError("repro serve not ready in time")
        await asyncio.sleep(0.005)
    with open(ready) as f:
        return json.load(f)


async def _cycles(port: int) -> List[dict]:
    status, data = await http(port, "GET", "/cycles?limit=100000")
    if status != 200:
        raise RuntimeError(f"GET /cycles answered {status}")
    return data["cycles"]


async def serve_round(
    seed: int,
    seconds: float,
    workdir: str,
    traced: bool,
    server_cpus: Optional[List[int]] = None,
) -> ServeRound:
    """Launch the server, drive ``seconds`` of the schedule, check, stop.

    ``server_cpus`` pins the server process (the caller pins the client).
    """
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    store_dir = os.path.join(workdir, "store")
    ready = os.path.join(workdir, "ready.json")
    trace_out = os.path.join(workdir, "spans.json") if traced else None
    env = dict(os.environ)
    root = os.getcwd()
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    launched = time.perf_counter()
    proc = await asyncio.create_subprocess_exec(
        *_launch_cmd(store_dir, ready, trace_out),
        stdout=asyncio.subprocess.PIPE, env=env, preexec_fn=die_with_parent,
    )
    if server_cpus:
        os.sched_setaffinity(proc.pid, server_cpus)
    try:
        info = await _wait_ready(proc, ready)
        setup_s = time.perf_counter() - launched
        port = info["port"]
        for t in range(N_TENANTS):
            status, _ = await http(port, "POST", "/tenants",
                                   {"tenant_id": f"t{t}", "name": f"t{t}", "weight": 1.0})
            if status // 100 != 2:
                raise RuntimeError(f"tenant bootstrap answered {status}")
        while True:
            cycles = await _cycles(port)
            if len(cycles) >= WARMUP_CYCLES:
                break
            await asyncio.sleep(0.02)
        result = await _drive(port, proc.pid, seed, seconds)
        result.setup_s = setup_s
        await _final_check(port, result)
    finally:
        if proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
        try:
            out, _ = await asyncio.wait_for(proc.communicate(), timeout=60.0)
        finally:
            if proc.returncode is None:
                proc.kill()
                await proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"repro serve exited with {proc.returncode}")
    summary = json.loads(out.decode())
    shed = summary.get("requests_shed", 0) + summary.get("connections_shed", 0)
    result.failed += shed
    if traced:
        with open(trace_out) as f:
            result.trace = json.load(f)
    shutil.rmtree(workdir, ignore_errors=True)
    return result


async def _drive(port: int, pid: int, seed: int, seconds: float) -> ServeRound:
    ops = rest_schedule(seed, seconds, N_TENANTS, N_STAGES, WRITE_RATE, READ_RATE)
    write_ms: List[float] = []
    read_ms: List[float] = []
    late_ms: List[float] = []
    failed = 0
    weight_writes: List[Tuple[float, int]] = []  # (due, epoch acknowledged in)
    probes: List[Tuple[float, int]] = []  # (answered at, newest completed epoch)
    acked_weights: Dict[str, float] = {}
    acked_slos: Dict[str, List[str]] = {}
    slots = {"write": asyncio.Semaphore(1), "read": asyncio.Semaphore(1)}
    tasks: List[asyncio.Task] = []

    async def issue(op: RestOp, due: float, slot: asyncio.Semaphore) -> None:
        nonlocal failed
        try:
            status, data = await http(port, op.method, op.path, op.body or None)
        except (OSError, ValueError, IndexError):
            status, data = 0, None  # refused, reset or unparsable: a failure
        finally:
            slot.release()
        done = time.perf_counter()
        latency = (done - due) * 1e3
        if status // 100 != 2 or latency > LATE_LIMIT_S * 1e3:
            failed += 1
        if op.method == "POST":
            write_ms.append(latency)
            if status // 100 == 2:
                if op.kind == "weight":
                    acked_weights[op.tenant] = op.body["weight"]
                    weight_writes.append((due, int(data["created_epoch"])))
                else:
                    acked_slos.setdefault(op.tenant, []).append(op.body["job_id"])
        else:
            read_ms.append(latency)
            if op.kind == "cycles" and status == 200 and data["cycles"]:
                probes.append((done, max(c["epoch"] for c in data["cycles"])))

    first_epoch = max(c["epoch"] for c in await _cycles(port))
    cpu0 = proc_cpu_s(pid)
    t0 = time.perf_counter()
    for op in ops:
        due = t0 + op.due_s
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        slot = slots["write" if op.method == "POST" else "read"]
        await slot.acquire()
        late_ms.append(max(0.0, (time.perf_counter() - due) * 1e3))
        tasks.append(asyncio.create_task(issue(op, due, slot)))
    end = t0 + seconds
    if time.perf_counter() < end:
        await asyncio.sleep(end - time.perf_counter())
    await asyncio.gather(*tasks)
    cpu = proc_cpu_s(pid) - cpu0
    cycles = await _cycles(port)
    window = [c for c in cycles if c["epoch"] > first_epoch]
    cycles_ms = [(c["collect_s"] + c["compute_s"] + c["enforce_s"]) * 1e3 for c in window]
    failed += sum(1 for c in window if c["n_missing"] or c["timed_out"])

    # Reaction: first probe answered after the write's acknowledgement
    # epoch was superseded by a completed cycle. Writes acknowledged too
    # close to the end to be probed are left out (not failures).
    reaction_ms: List[float] = []
    for due, epoch in weight_writes:
        hit = next((t for t, e in probes if t > due and e > epoch), None)
        if hit is not None:
            reaction_ms.append((hit - due) * 1e3)
    writes = sum(1 for op in ops if op.method == "POST")
    return ServeRound(
        setup_s=0.0,
        cycles_ms=cycles_ms,
        ctrl_cpu_s=cpu,
        rss_mb=proc_peak_rss_mb(pid),
        write_ms=write_ms,
        read_ms=read_ms,
        reaction_ms=reaction_ms,
        late_ms=late_ms,
        attempted=len(ops) + len(window),
        failed=failed,
        counts={
            "writes": writes,
            "reads": len(ops) - writes,
            "acked_weight_tenants": len(acked_weights),
            "acked_slos": sum(len(v) for v in acked_slos.values()),
        },
        window_ns=(int(t0 * 1e9), int(end * 1e9)),
        acked_weights=acked_weights,
        acked_slos=acked_slos,
    )


async def _final_check(port: int, result: ServeRound) -> None:
    from repro.core.control_plane import default_policy

    tenants = {}
    for t in range(N_TENANTS):
        status, data = await http(port, "GET", f"/tenants/t{t}")
        if status == 200:
            tenants[f"t{t}"] = data
    status, rules = await http(port, "GET", "/rules")
    if status != 200:
        raise RuntimeError(f"GET /rules answered {status}")
    oracle.check_serve(
        tenants, result.acked_weights, result.acked_slos, rules["limits"],
        default_policy(N_STAGES).allocatable_iops,
    )


def service_layers(trace: dict, window_ns: Tuple[int, int], writes: int) -> Dict[str, float]:
    """Per-layer metrics of the service tier from the server's spans."""
    lo, hi = window_ns
    by_name: Dict[str, List[Tuple[int, int]]] = {}
    for _, _, name, t0, t1 in trace["spans"]:
        if lo <= t0 <= hi:
            by_name.setdefault(name, []).append((t0, t1))

    def durs(name: str, scale: float) -> List[float]:
        return [(t1 - t0) / scale for t0, t1 in by_name.get(name, [])]

    def p50(name: str, scale: float) -> float:
        d = durs(name, scale)
        return median(d) if d else 0.0

    ticks = sorted(by_name.get("service.cycle_once", []))
    gaps = [(b[0] - a[1]) / 1e6 for a, b in zip(ticks, ticks[1:])]
    counts = trace["counts"]
    status = {k: v for k, v in counts.items() if k.startswith("status_")}
    fsyncs = len(by_name.get("wal.fsync", []))
    return {
        "http.handle_ms_p50": p50("http.handle", 1e6),
        "http.status_2xx": sum(v for k, v in status.items() if k[7] == "2"),
        "http.status_4xx": sum(v for k, v in status.items()
                               if k[7] == "4" and k != "status_429"),
        "http.status_429": status.get("status_429", 0),
        "http.status_503": status.get("status_503", 0),
        "guard.admit_us_p50": p50("guard.admit", 1e3),
        "guard.shed": counts.get("shed", 0),
        "wal.append_us_p50": p50("wal.append", 1e3),
        "wal.fsync_ms_p50": p50("wal.fsync", 1e6),
        "wal.fsyncs_per_write": fsyncs / writes if writes else 0.0,
        "store.record_cycle_us_p50": p50("store.record_cycle", 1e3),
        "store.lease_us_p50": p50("store.lease", 1e3),
        "service.cycle_once_ms_p50": p50("service.cycle_once", 1e6),
        "service.cycle_gap_ms_p50": median(gaps) if gaps else 0.0,
        "ctrl.loop_lag_ms_p90": percentile(trace["lags_ms"], 90),
    }

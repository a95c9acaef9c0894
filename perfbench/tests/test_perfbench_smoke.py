"""Every workload end to end at tiny sizes, plus the command-line contract."""

import asyncio
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import live, serve, sim
from perfbench.tracing import SpanLog

TINY_FLAT = live.LiveConfig(16, 0, 1.0)
TINY_HIER = live.LiveConfig(24, 2, 0.1)


def test_flat_counts_repeat_for_a_seed(at_root):
    a = asyncio.run(live.live_round(TINY_FLAT, 3, 0.3))
    b = asyncio.run(live.live_round(TINY_FLAT, 3, 0.3))
    assert a.failed == b.failed == 0
    assert a.counts == b.counts
    assert a.counts["frames_per_cycle"] == 4 * TINY_FLAT.n_stages
    assert a.counts["rules_applied_per_cycle"] == TINY_FLAT.n_stages
    c = asyncio.run(live.live_round(TINY_FLAT, 4, 0.3))
    assert c.counts["demand_digest"] != a.counts["demand_digest"]


def test_hier_traced_round_reports_layers(at_root):
    log = SpanLog("plane")
    live.install_plane_trace(log)
    try:
        r = asyncio.run(live.live_round(TINY_HIER, 5, 0.5, log))
    finally:
        log.unwrap_all()
    assert r.failed == 0 and r.attempted == len(r.cycles) > 0
    assert r.layer["agg.collect_ms_p50"] > 0
    assert r.layer["ctrl.rules_sent_per_cycle"] == TINY_HIER.n_stages
    assert r.layer["codec.encode_calls_per_cycle"] > 0
    assert r.fleet_events, "the fleet's spans come back for the Perfetto trace"


def test_serve_round_end_to_end(at_root, monkeypatch, tmp_path):
    monkeypatch.setattr(serve, "N_STAGES", 12)
    monkeypatch.setattr(serve, "N_AGGREGATORS", 3)
    r = asyncio.run(serve.serve_round(2, 1.5, str(tmp_path / "serve"), True))
    assert r.failed == 0
    assert r.write_ms and r.read_ms and r.cycles_ms
    layers = serve.service_layers(r.trace, r.window_ns, r.counts["writes"])
    assert layers["http.status_2xx"] > 0
    assert layers["service.cycle_once_ms_p50"] > 0


def test_sim_round_matches_calibration():
    r = sim.sim_round(0)
    assert round(r.sim_mean_ms, 2) == 77.34
    assert len(r.cycle_wall_ms) == sim.CYCLES - sim.WARMUP
    assert r.events == sim.sim_round(1).events  # exact count, seed-independent DES


def test_command_prints_the_contract_line(at_root):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    ).stdout.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((at_root / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] is True and result["failed"] == 0


def test_refuses_to_run_without_the_program(at_root, tmp_path):
    shutil.copytree(at_root / "perfbench", tmp_path / "perfbench")
    shutil.copy(at_root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("concurrent", [False, True])
def test_self_time_subtracts_merged_children(concurrent):
    log = SpanLog("t")
    # parent 0..100, children 10..40 and 30..60 (overlap) or 10..40, 50..60
    second = (30, 60) if concurrent else (50, 60)
    log.spans[:] = [(1, 0, "p", 0, 100), (2, 1, "c", 10, 40), (3, 1, "c", *second)]
    st = log.self_times()
    assert st["p"]["self_ns"] == (50 if concurrent else 60)
    assert st["c"]["calls"] == 2


def test_tail_ignores_host_drift_but_not_slow_cycles():
    from perfbench.measure import local_ratios, percentile
    from perfbench.run import Report, TAIL_WINDOW

    # The host halves its speed for the last third of a set-up: the pooled
    # p90 jumps to the slow level, the drift-free p90 stays at the median.
    drift = [100.0] * 40 + [200.0] * 20
    report = Report()
    report.cycle_rows([1.0], [drift], 1.0, 1, 1.0)
    assert report.rows["cycle_ms_p90_pooled"][0] == 200.0
    assert report.rows["cycle_ms_p90"][0] == report.rows["cycle_ms_p50"][0] == 100.0
    # One cycle in five twice as slow as its neighbours does show.
    jitter = [200.0 if i % 5 == 0 else 100.0 for i in range(60)]
    assert percentile(local_ratios([jitter], TAIL_WINDOW), 90) == 2.0


def test_metric_tables_match_benchmark_json(at_root):
    from perfbench import run

    spec = json.loads((at_root / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

"""Correctness oracle: every run checks the program's outputs.

Each check raises :class:`OracleError` naming the check that failed, and
the benchmark turns that into a failed run (non-zero exit, no result).
The oracle recomputes from the seeded inputs, never from the program's
own intermediate state.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

import numpy as np

from perfbench.inputs import DemandSchedule

#: Fig. 5 calibration: simulated mean cycle at 10,000 stages / 10
#: aggregators (EXPERIMENTS.md).
FIG5_10K_10AGG_MS = 77.34


class OracleError(AssertionError):
    """An output of the program is wrong; ``check`` names the rule."""

    def __init__(self, check: str, detail: str) -> None:
        super().__init__(f"oracle check '{check}' failed: {detail}")
        self.check = check


def _index(sid: str) -> int:
    return int(sid.rsplit("-", 1)[1])


def check_cycle(
    epoch: int,
    allocations: Mapping[str, float],
    schedule: DemandSchedule,
    policy,
    previous_epoch: int,
) -> None:
    """One live cycle: PSFA bit-equality, capacity, demand and epoch order.

    PSFA is recomputed from the seeded demand of ``epoch`` and the policy
    weights, in the controller's stage order (the order only affects
    floating-point summation, and bit-equality is the contract).
    """
    from repro.core.algorithms.psfa import PSFA

    if epoch <= previous_epoch:
        raise OracleError("epoch-monotone", f"epoch {epoch} after {previous_epoch}")
    order = list(allocations)
    if len(order) != schedule.n_stages:
        raise OracleError(
            "all-stages-ruled", f"{len(order)} of {schedule.n_stages} stages allocated"
        )
    idx = np.fromiter((_index(s) for s in order), dtype=np.int64, count=len(order))
    data, meta = schedule.vectors(epoch)
    demand = data[idx] + meta[idx]
    weights = policy.weights([s.replace("stage", "job") for s in order])
    expected = PSFA().allocate(demand, weights, policy.allocatable_iops).allocations
    got = np.fromiter(allocations.values(), dtype=float, count=len(order))
    check_allocation_vector(got, expected, demand, policy.allocatable_iops, epoch)


def check_allocation_vector(
    got: np.ndarray,
    expected: np.ndarray,
    demand: np.ndarray,
    capacity: float,
    epoch: int,
) -> None:
    """The per-cycle invariants, on plain vectors (unit-testable)."""
    if not np.array_equal(got, expected):
        bad = int(np.flatnonzero(got != expected)[0])
        raise OracleError(
            "psfa-bit-equal",
            f"epoch {epoch}: row {bad} got {got[bad]!r}, PSFA gives {expected[bad]!r}",
        )
    total = float(got.sum())
    if total > capacity * (1 + 1e-12):
        raise OracleError("capacity", f"epoch {epoch}: {total} > {capacity}")
    # PSFA's water level is a float sum, so a demand-limited stage can get
    # its demand plus one rounding unit; anything beyond that is a defect.
    over = np.flatnonzero(got > demand * (1 + 1e-12))
    if over.size:
        i = int(over[0])
        raise OracleError(
            "limit-within-demand", f"epoch {epoch}: row {i} {got[i]} > demand {demand[i]}"
        )


def check_fleet(
    stages: Sequence[Tuple[int, float]],
    last_epoch: int,
    last_allocations: Mapping[str, float],
) -> None:
    """End of run: every stage applied the last cycle's epoch and limit."""
    for i, (epoch, limit) in enumerate(stages):
        sid = f"stage-{i:05d}"
        if epoch != last_epoch:
            raise OracleError(
                "fleet-applied-epoch", f"{sid} applied {epoch}, last cycle {last_epoch}"
            )
        if limit != last_allocations.get(sid):
            raise OracleError(
                "fleet-applied-limit",
                f"{sid} applied {limit!r}, controller computed "
                f"{last_allocations.get(sid)!r}",
            )


def check_serve(
    tenants: Mapping[str, dict],
    expected_weights: Mapping[str, float],
    expected_slos: Mapping[str, List[str]],
    limits: Mapping[str, float],
    capacity: float,
) -> None:
    """``serve-slo``: acknowledged writes are visible; limits fit capacity.

    ``tenants`` maps tenant id to its ``GET /tenants/{id}`` payload;
    ``expected_weights`` holds the last acknowledged weight per tenant and
    ``expected_slos`` the jobs of every acknowledged SLO write.
    """
    for tid, weight in expected_weights.items():
        got = tenants.get(tid)
        if got is None or got.get("weight") != weight:
            raise OracleError(
                "write-visible-weight",
                f"tenant {tid}: expected weight {weight}, read {got and got.get('weight')}",
            )
    for tid, jobs in expected_slos.items():
        seen = {s["job_id"] for s in tenants.get(tid, {}).get("slos", [])}
        missing = sorted(set(jobs) - seen)
        if missing:
            raise OracleError(
                "write-visible-slo", f"tenant {tid}: SLO jobs {missing[:3]} not listed"
            )
    total = float(sum(limits.values()))
    if total > capacity * (1 + 1e-12):
        raise OracleError("capacity", f"GET /rules limits sum {total} > {capacity}")


def check_sim(mean_ms: float) -> None:
    """``sim-hier-10k``: the DES still reproduces the Fig. 5 calibration."""
    if round(mean_ms, 2) != FIG5_10K_10AGG_MS:
        raise OracleError(
            "fig5-calibration",
            f"simulated mean cycle {mean_ms:.4f} ms, calibrated {FIG5_10K_10AGG_MS} ms",
        )


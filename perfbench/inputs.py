"""Seeded inputs: per-epoch stage demand and the REST write schedule.

Everything the program receives is generated here from the workload
seed alone, so two runs with the same seed feed the program identical
inputs. Demands are whole numbers of IOPS, which every wire codec
carries exactly, so the oracle can recompute allocations bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: Per-stage demand ranges (IOPS). The default policy grants 750 IOPS
#: per stage, so a mean total demand of ~1,300 keeps PSFA contended.
DATA_RANGE = (200, 2000)
META_RANGE = (20, 400)


def stage_id(index: int) -> str:
    """The harness naming convention the service tier also relies on."""
    return f"stage-{index:05d}"


def job_id(index: int) -> str:
    return f"job-{index:05d}"


class DemandSchedule:
    """Demand of every stage at every epoch, a pure function of the seed.

    Epoch 0 draws every stage. Each later epoch redraws a seeded subset of
    ``round(churn * n_stages)`` stages (all of them when ``churn >= 1``)
    and keeps the rest. Vectors are built in epoch order and memoised, so
    the fleet (which walks epochs forward) and the oracle (which reads
    them back) agree without sharing state.
    """

    def __init__(self, seed: int, n_stages: int, churn: float) -> None:
        if n_stages < 1:
            raise ValueError(f"n_stages must be >= 1: {n_stages}")
        if not 0.0 < churn <= 1.0:
            raise ValueError(f"churn must be in (0, 1]: {churn}")
        self.seed = int(seed)
        self.n_stages = n_stages
        self.churn = churn
        self._vectors: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def _draw(self, rng: np.random.Generator, k: int) -> Tuple[np.ndarray, np.ndarray]:
        data = rng.integers(DATA_RANGE[0], DATA_RANGE[1], size=k).astype(float)
        meta = rng.integers(META_RANGE[0], META_RANGE[1], size=k).astype(float)
        return data, meta

    def vectors(self, epoch: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(data, metadata)`` demand vectors, indexed by stage number."""
        if epoch < 0:
            raise ValueError(f"negative epoch: {epoch}")
        cached = self._vectors.get(epoch)
        if cached is not None:
            return cached
        start = max((e for e in self._vectors if e < epoch), default=None)
        if start is None:
            rng = np.random.default_rng([self.seed, 0])
            self._vectors[0] = self._draw(rng, self.n_stages)
            start = 0
        data, meta = self._vectors[start]
        for e in range(start + 1, epoch + 1):
            rng = np.random.default_rng([self.seed, e])
            if self.churn >= 1.0:
                data, meta = self._draw(rng, self.n_stages)
            else:
                k = max(1, round(self.churn * self.n_stages))
                idx = rng.choice(self.n_stages, size=k, replace=False)
                new_data, new_meta = self._draw(rng, k)
                data, meta = data.copy(), meta.copy()
                data[idx] = new_data
                meta[idx] = new_meta
            self._vectors[e] = (data, meta)
        return self._vectors[epoch]

    def demand(self, epoch: int, index: int) -> Tuple[float, float]:
        data, meta = self.vectors(epoch)
        return float(data[index]), float(meta[index])

    def forget_before(self, epoch: int) -> None:
        """Drop vectors older than ``epoch`` (the fleet never looks back)."""
        keep = max((e for e in self._vectors if e < epoch), default=None)
        for e in [e for e in self._vectors if e < epoch and e != keep]:
            del self._vectors[e]

    def digest(self, epochs: int = 8) -> str:
        """Short hash of the first ``epochs`` vectors (a seed fingerprint)."""
        h = hashlib.sha256()
        for e in range(epochs):
            data, meta = self.vectors(e)
            h.update(data.tobytes())
            h.update(meta.tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class RestOp:
    """One scheduled REST request of the ``serve-slo`` client."""

    due_s: float
    method: str
    path: str
    body: Dict
    #: ``"weight"`` / ``"slo"`` writes, ``"tenant"`` / ``"cycles"`` reads.
    kind: str
    tenant: str


def rest_schedule(
    seed: int,
    seconds: float,
    n_tenants: int,
    n_stages: int,
    write_rate: float,
    read_rate: float,
) -> List[RestOp]:
    """Open-loop request schedule: Poisson writes and reads, from the seed.

    Writes alternate at random between a tenant re-weight (a whole-number
    weight in 1..16) and an SLO that admits one more job to a tenant.
    Every job is admitted at most once, so each SLO write is new state.
    Reads are ``GET /cycles`` (the reaction probe) and ``GET /tenants/{id}``.
    """
    rng = np.random.default_rng([seed, 0x5E])
    ops: List[RestOp] = []
    free_jobs = list(rng.permutation(n_stages))
    t = 0.0
    slo_n = 0
    while True:
        t += float(rng.exponential(1.0 / write_rate))
        if t >= seconds:
            break
        tenant = f"t{int(rng.integers(n_tenants))}"
        if rng.random() < 0.5 or not free_jobs:
            weight = float(rng.integers(1, 17))
            ops.append(
                RestOp(t, "POST", "/tenants",
                       {"tenant_id": tenant, "name": tenant, "weight": weight},
                       "weight", tenant)
            )
        else:
            job = job_id(int(free_jobs.pop()))
            slo_n += 1
            ops.append(
                RestOp(t, "POST", f"/tenants/{tenant}/slos",
                       {"slo_id": f"slo-{slo_n}", "job_id": job, "min_iops": 0.0},
                       "slo", tenant)
            )
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / read_rate))
        if t >= seconds:
            break
        if rng.random() < 0.75:
            ops.append(RestOp(t, "GET", "/cycles?limit=4", {}, "cycles", ""))
        else:
            tenant = f"t{int(rng.integers(n_tenants))}"
            ops.append(RestOp(t, "GET", f"/tenants/{tenant}", {}, "tenant", tenant))
    ops.sort(key=lambda op: op.due_s)
    return ops

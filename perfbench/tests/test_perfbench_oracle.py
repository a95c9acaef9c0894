"""The oracle accepts the program's real outputs and rejects corrupted copies."""

import numpy as np
import pytest

from perfbench import oracle
from perfbench.inputs import DemandSchedule, rest_schedule, stage_id


def _policy(n):
    from repro.core.control_plane import default_policy

    return default_policy(n)


def _allocation(schedule, epoch, policy):
    """What a correct controller reports for ``epoch`` (stage order 0..n-1)."""
    from repro.core.algorithms.psfa import PSFA

    data, meta = schedule.vectors(epoch)
    ids = [stage_id(i) for i in range(schedule.n_stages)]
    weights = policy.weights([s.replace("stage", "job") for s in ids])
    limits = PSFA().allocate(data + meta, weights, policy.allocatable_iops).allocations
    return dict(zip(ids, (float(v) for v in limits)))


def test_correct_allocation_passes():
    schedule = DemandSchedule(5, 64, 1.0)
    policy = _policy(64)
    oracle.check_cycle(3, _allocation(schedule, 3, policy), schedule, policy, 2)


def test_corrupted_copy_is_rejected():
    schedule = DemandSchedule(5, 64, 1.0)
    policy = _policy(64)
    good = _allocation(schedule, 3, policy)
    bad = dict(good)
    sid = next(iter(bad))
    bad[sid] = float(np.nextafter(bad[sid], np.inf))  # one rounding unit off
    with pytest.raises(oracle.OracleError) as err:
        oracle.check_cycle(3, bad, schedule, policy, 2)
    assert err.value.check == "psfa-bit-equal"
    oracle.check_cycle(3, good, schedule, policy, 2)  # the original is untouched


def test_invariants_name_the_failed_check():
    demand = np.array([100.0, 100.0])
    with pytest.raises(oracle.OracleError, match="capacity"):
        oracle.check_allocation_vector(demand, demand, demand, 150.0, 1)
    over = np.array([120.0, 20.0])
    with pytest.raises(oracle.OracleError, match="limit-within-demand"):
        oracle.check_allocation_vector(over, over, demand, 150.0, 1)
    schedule = DemandSchedule(1, 4, 1.0)
    policy = _policy(4)
    alloc = _allocation(schedule, 2, policy)
    with pytest.raises(oracle.OracleError, match="epoch-monotone"):
        oracle.check_cycle(2, alloc, schedule, policy, 2)


def test_fleet_and_serve_and_sim_checks():
    last = {"stage-00000": 5.0, "stage-00001": 7.0}
    oracle.check_fleet([(9, 5.0), (9, 7.0)], 9, last)
    with pytest.raises(oracle.OracleError, match="fleet-applied-epoch"):
        oracle.check_fleet([(9, 5.0), (8, 7.0)], 9, last)
    with pytest.raises(oracle.OracleError, match="fleet-applied-limit"):
        oracle.check_fleet([(9, 5.0), (9, 7.5)], 9, last)
    tenants = {"t0": {"weight": 3.0, "slos": [{"job_id": "job-00001"}]}}
    oracle.check_serve(tenants, {"t0": 3.0}, {"t0": ["job-00001"]}, last, 20.0)
    with pytest.raises(oracle.OracleError, match="write-visible-weight"):
        oracle.check_serve(tenants, {"t0": 4.0}, {}, last, 20.0)
    with pytest.raises(oracle.OracleError, match="write-visible-slo"):
        oracle.check_serve(tenants, {}, {"t0": ["job-00002"]}, last, 20.0)
    with pytest.raises(oracle.OracleError, match="capacity"):
        oracle.check_serve(tenants, {}, {}, last, 10.0)
    oracle.check_sim(77.3378)
    with pytest.raises(oracle.OracleError, match="fig5-calibration"):
        oracle.check_sim(77.5)


def test_inputs_come_from_the_seed_alone():
    a, b = DemandSchedule(11, 50, 0.05), DemandSchedule(11, 50, 0.05)
    b.vectors(7)
    b.forget_before(7)
    for epoch in (0, 3, 7, 12):
        assert all(np.array_equal(x, y) for x, y in zip(a.vectors(epoch), b.vectors(epoch)))
    changed = np.count_nonzero(a.vectors(4)[0] != a.vectors(3)[0])
    assert 0 < changed <= round(0.05 * 50)
    assert DemandSchedule(12, 50, 0.05).digest() != a.digest()
    assert rest_schedule(3, 5.0, 4, 100, 8.0, 16.0) == rest_schedule(3, 5.0, 4, 100, 8.0, 16.0)

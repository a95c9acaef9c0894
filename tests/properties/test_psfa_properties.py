"""Property-based tests (hypothesis) for PSFA invariants.

These encode the algorithm's contract from the paper §III-C:
no over-provisioning, no false allocation, work conservation, weighted
fairness — for *arbitrary* demand/weight vectors, not hand-picked cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.algorithms.psfa import PSFA, weighted_waterfill

N = st.integers(min_value=1, max_value=64)


def demand_weight_capacity():
    return N.flatmap(
        lambda n: st.tuples(
            arrays(
                np.float64,
                n,
                elements=st.floats(0.0, 1e5, allow_nan=False),
            ),
            arrays(
                np.float64,
                n,
                elements=st.floats(0.1, 16.0, allow_nan=False),
            ),
            st.floats(1.0, 1e6, allow_nan=False),
        )
    )


def degenerate_demand_weight_capacity():
    """Weight vectors that may contain exact zeros (the raw exported
    water-fill accepts them; ``PSFA.allocate`` rejects them upstream)."""
    return N.flatmap(
        lambda n: st.tuples(
            arrays(
                np.float64,
                n,
                elements=st.floats(0.0, 1e5, allow_nan=False),
            ),
            arrays(
                np.float64,
                n,
                elements=st.one_of(st.just(0.0), st.floats(0.0, 16.0)),
            ),
            st.floats(1.0, 1e6, allow_nan=False),
        )
    )


class TestDegenerateWeights:
    """Regression: a 0-demand/0-weight pair used to produce 0/0 = nan
    (with a RuntimeWarning) and poison the saturation-order argsort."""

    @given(degenerate_demand_weight_capacity())
    @settings(max_examples=200, deadline=None)
    def test_no_nan_no_warning_capacity_respected(self, dwc):
        import warnings

        d, w, cap = dwc
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc = weighted_waterfill(d, w, cap)
        assert np.all(np.isfinite(alloc))
        assert np.all(alloc >= -1e-12)
        assert np.all(alloc <= d + 1e-6)
        assert alloc.sum() <= cap + max(1e-6, 1e-9 * cap)

    @given(degenerate_demand_weight_capacity())
    @settings(max_examples=100, deadline=None)
    def test_zero_weight_never_starves_positive_weight(self, dwc):
        """Zero-weight demanders saturate first: while any positive-
        weight job is unsatisfied, capacity keeps flowing to it."""
        d, w, cap = dwc
        alloc = weighted_waterfill(d, w, cap)
        slack = cap - alloc.sum()
        weighted_unsatisfied = (w > 0) & (d - alloc > 1e-6)
        if slack > max(1e-6, 1e-9 * cap):
            assert not weighted_unsatisfied.any()


class TestWaterfillProperties:
    @given(demand_weight_capacity())
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_demand_or_capacity(self, dwc):
        d, w, cap = dwc
        alloc = weighted_waterfill(d, w, cap)
        assert np.all(alloc <= d + 1e-6)
        assert alloc.sum() <= cap + max(1e-6, 1e-9 * cap)

    @given(demand_weight_capacity())
    @settings(max_examples=200, deadline=None)
    def test_work_conserving(self, dwc):
        """Either everyone is satisfied or capacity is exhausted."""
        d, w, cap = dwc
        alloc = weighted_waterfill(d, w, cap)
        slack = cap - alloc.sum()
        unsatisfied = d - alloc > 1e-6
        if slack > max(1e-6, 1e-9 * cap):
            assert not unsatisfied.any()

    @given(demand_weight_capacity())
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, dwc):
        d, w, cap = dwc
        assert np.all(weighted_waterfill(d, w, cap) >= -1e-12)

    @given(demand_weight_capacity())
    @settings(max_examples=100, deadline=None)
    def test_unsaturated_jobs_share_by_weight(self, dwc):
        """Jobs capped by the water level sit at level*weight."""
        d, w, cap = dwc
        alloc = weighted_waterfill(d, w, cap)
        capped = d - alloc > 1e-6
        if capped.sum() >= 2:
            levels = alloc[capped] / w[capped]
            assert np.allclose(levels, levels[0], rtol=1e-6, atol=1e-6)

    @given(demand_weight_capacity(), st.floats(1.1, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_capacity_monotonicity(self, dwc, factor):
        """More capacity never lowers anyone's allocation."""
        d, w, cap = dwc
        a1 = weighted_waterfill(d, w, cap)
        a2 = weighted_waterfill(d, w, cap * factor)
        assert np.all(a2 >= a1 - 1e-6)


class TestPSFAProperties:
    @given(demand_weight_capacity())
    @settings(max_examples=200, deadline=None)
    def test_capacity_respected(self, dwc):
        d, w, cap = dwc
        res = PSFA().allocate(d, w, cap)
        assert res.total_allocated <= cap + max(1e-6, 1e-9 * cap)

    @given(demand_weight_capacity())
    @settings(max_examples=200, deadline=None)
    def test_no_false_allocation(self, dwc):
        """Idle jobs receive exactly zero."""
        d, w, cap = dwc
        res = PSFA().allocate(d, w, cap)
        assert np.all(res.allocations[d <= 0.0] == 0.0)

    @given(demand_weight_capacity())
    @settings(max_examples=200, deadline=None)
    def test_full_allocation_when_any_active(self, dwc):
        """With redistribution, active jobs absorb the whole budget."""
        d, w, cap = dwc
        res = PSFA(redistribute_leftover=True).allocate(d, w, cap)
        if (d > 0).any():
            assert res.total_allocated <= cap * (1 + 1e-9) + 1e-6
            assert res.total_allocated >= cap * (1 - 1e-9) - 1e-6

    @given(demand_weight_capacity())
    @settings(max_examples=200, deadline=None)
    def test_without_redistribution_demand_capped(self, dwc):
        d, w, cap = dwc
        res = PSFA(redistribute_leftover=False).allocate(d, w, cap)
        assert np.all(res.allocations <= d + 1e-6)

    @given(demand_weight_capacity())
    @settings(max_examples=100, deadline=None)
    def test_active_jobs_get_something(self, dwc):
        """No starvation: every active job receives a positive grant."""
        d, w, cap = dwc
        res = PSFA().allocate(d, w, cap)
        active = d > 0
        assert np.all(res.allocations[active] > 0)

    @given(demand_weight_capacity())
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, dwc):
        """Scaling demands and capacity together scales allocations."""
        d, w, cap = dwc
        k = 3.0
        a1 = PSFA().allocate(d, w, cap).allocations
        a2 = PSFA().allocate(d * k, w, cap * k).allocations
        assert np.allclose(a2, a1 * k, rtol=1e-6, atol=1e-6)

    @given(demand_weight_capacity())
    @settings(max_examples=100, deadline=None)
    def test_permutation_equivariance(self, dwc):
        d, w, cap = dwc
        rng = np.random.default_rng(0)
        perm = rng.permutation(d.size)
        a1 = PSFA().allocate(d, w, cap).allocations
        a2 = PSFA().allocate(d[perm], w[perm], cap).allocations
        assert np.allclose(a1[perm], a2, rtol=1e-9, atol=1e-9)

    @given(demand_weight_capacity())
    @settings(max_examples=100, deadline=None)
    def test_guarantee_floor_honoured_for_active(self, dwc):
        d, w, cap = dwc
        n = d.size
        # One active job with a floor of 10% of capacity.
        g = np.zeros(n)
        if (d > 0).any():
            idx = int(np.argmax(d > 0))
            g[idx] = 0.1 * cap
            res = PSFA().allocate(d, w, cap, guarantees=g)
            assert res.allocations[idx] >= g[idx] - 1e-6


def saturated_demand_weight_capacity():
    """Total demand at or above capacity, at up to 1e6-IOPS scale.

    Yields ``(demands, weights, fraction)``; capacity is ``fraction`` of
    the total demand. Demands are idle or at least one IOPS.
    """
    demand = st.one_of(st.just(0.0), st.floats(1.0, 1e6))
    return st.integers(min_value=1, max_value=256).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=demand),
            arrays(np.float64, n, elements=st.floats(0.1, 16.0)),
            st.floats(1e-3, 1.0),
        )
    ).filter(lambda dwf: dwf[0].sum() * dwf[2] >= 1.0)


class TestSaturatedNeverOverGrants:
    """Regression: PSFA redistributed the float residue of its own sums
    (about 1e-10 at 1e6 IOPS) as "leftover", granting 645.0000000000001
    to a job demanding 645.0. A saturated plane has no leftover."""

    @given(saturated_demand_weight_capacity())
    @settings(max_examples=300, deadline=None)
    def test_alloc_within_demand_exactly(self, dwf):
        from repro.core.algorithms.reference import psfa_reference

        d, w, fraction = dwf
        cap = float(d.sum()) * fraction
        for alloc in (
            PSFA().allocate(d, w, cap).allocations,
            np.array(psfa_reference(d, w, cap)),
        ):
            assert np.all(alloc <= d)
            assert alloc.sum() <= cap * (1 + 1e-12)

"""Pure-Python reference implementations of the allocation brains.

The production brains (:mod:`psfa`, :mod:`padll`, :mod:`baselines`) are
fully vectorized; these loop-based twins restate their semantics in
plain Python, one stage at a time, as an executable specification. The
hypothesis equivalence suite races the two families over random demand /
weight / capacity inputs (including the zero-weight and idle-stage
degenerate cases pinned in PR 9).

Equivalence contract: **ulp-bounded, not byte-identical.** The
vectorized kernels sum with ``ndarray.sum``/``cumsum`` (pairwise
summation) while these loops accumulate sequentially, so the two differ
by floating-point associativity — bounded to a relative 1e-9 by the
suite. Controller-level columnar-vs-scalar equivalence *is* byte-exact
(both sides call the same vectorized brains); the ulp bound applies only
to this reference family.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = [
    "max_min_fair_reference",
    "naive_proportional_reference",
    "padll_axes_reference",
    "psfa_reference",
    "static_partition_reference",
    "uniform_share_reference",
    "waterfill_reference",
]

_EPS = 1e-12
#: Leftover below this fraction of capacity is float residue (as in PSFA).
_LEFTOVER_REL = 1e-9


def waterfill_reference(
    demands: Sequence[float],
    weights: Sequence[float],
    capacity: float,
) -> List[float]:
    """Sequential weighted water-fill (mirrors ``weighted_waterfill``).

    Grants jobs in ascending order of their saturation level
    ``d_i / w_i``; once the remaining budget can no longer satisfy the
    next job, everyone left sits at the common water level.
    """
    n = len(demands)
    if n == 0:
        return []
    d = [float(x) for x in demands]
    if sum(d) <= capacity:
        return list(d)
    w = [max(float(x), _EPS) for x in weights]

    order = sorted(range(n), key=lambda i: d[i] / w[i])
    # Suffix weight sums, like the kernel's reverse cumsum. A running
    # subtraction (total - granted) would catastrophically cancel once
    # only epsilon-clamped zero-weight jobs remain, yielding a garbage
    # water level; summing the tail directly keeps it exact.
    suffix_weight = [0.0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        suffix_weight[pos] = suffix_weight[pos + 1] + w[order[pos]]

    alloc = [0.0] * n
    granted_demand = 0.0
    for pos, i in enumerate(order):
        level = (capacity - granted_demand) / max(suffix_weight[pos], _EPS)
        if d[i] / w[i] <= level + _EPS:
            # Fully granted: below the water line.
            alloc[i] = d[i]
            granted_demand += d[i]
        else:
            # Everyone from here up shares the final water level.
            for j in order[pos:]:
                alloc[j] = min(d[j], level * w[j])
            break
    return alloc


def psfa_reference(
    demands: Sequence[float],
    weights: Sequence[float],
    capacity: float,
    guarantees: Optional[Sequence[float]] = None,
    redistribute_leftover: bool = True,
    activity_threshold_iops: float = 0.0,
) -> List[float]:
    """Loop-based twin of :meth:`PSFA.allocate` (allocations only)."""
    n = len(demands)
    alloc = [0.0] * n
    active = [i for i in range(n) if demands[i] > activity_threshold_iops]
    if not active:
        return alloc
    d_act = [float(demands[i]) for i in active]
    w_act = [float(weights[i]) for i in active]
    g_act = (
        [float(guarantees[i]) for i in active]
        if guarantees is not None
        else [0.0] * len(active)
    )
    spare = capacity - sum(g_act)
    excess = [max(d - g, 0.0) for d, g in zip(d_act, g_act)]
    filled = waterfill_reference(excess, w_act, spare)
    grants = [g + f for g, f in zip(g_act, filled)]
    leftover = capacity - sum(grants)
    if redistribute_leftover and leftover > _LEFTOVER_REL * capacity:
        total_w = sum(w_act)
        grants = [g + leftover * w / total_w for g, w in zip(grants, w_act)]
    for i, g in zip(active, grants):
        alloc[i] = g
    return alloc


def padll_fill_axis_reference(
    demands: Sequence[float],
    weights: Sequence[float],
    capacity: float,
    caps: Optional[Sequence[float]] = None,
    activity_threshold_iops: float = 0.0,
) -> List[float]:
    """Loop-based twin of :meth:`PADLLThrottler._fill_axis`."""
    n = len(demands)
    alloc = [0.0] * n
    active = [i for i in range(n) if demands[i] > activity_threshold_iops]
    if not active:
        return alloc
    effective = [
        min(float(demands[i]), float(caps[i])) if caps is not None
        else float(demands[i])
        for i in active
    ]
    filled = waterfill_reference(
        effective, [float(weights[i]) for i in active], capacity
    )
    for i, f in zip(active, filled):
        alloc[i] = f
    return alloc


def padll_axes_reference(
    data_demands: Sequence[float],
    metadata_demands: Sequence[float],
    weights: Sequence[float],
    data_capacity: float,
    metadata_capacity: float,
    metadata_caps: Optional[Sequence[float]] = None,
    guarantees: Optional[Sequence[float]] = None,
    metadata_cap_fraction: float = 0.5,
    activity_threshold_iops: float = 0.0,
) -> Tuple[List[float], List[float]]:
    """Loop-based twin of :meth:`PADLLThrottler.allocate_axes`."""
    n = len(data_demands)
    data = padll_fill_axis_reference(
        data_demands, weights, data_capacity,
        activity_threshold_iops=activity_threshold_iops,
    )
    if guarantees is not None:
        lifted = [
            max(a, float(g)) if d > activity_threshold_iops else a
            for a, g, d in zip(data, guarantees, data_demands)
        ]
        total = sum(lifted)
        if total > data_capacity + _EPS:
            lifted = [a * (data_capacity / total) for a in lifted]
        data = lifted
    if metadata_caps is None:
        metadata_caps = [metadata_cap_fraction * metadata_capacity] * n
    meta = padll_fill_axis_reference(
        metadata_demands, weights, metadata_capacity, caps=metadata_caps,
        activity_threshold_iops=activity_threshold_iops,
    )
    return data, meta


def static_partition_reference(
    demands: Sequence[float], weights: Sequence[float], capacity: float
) -> List[float]:
    """Loop-based twin of the ``static-partition`` baseline.

    Demand-blind: every stage gets its weight share of capacity whether
    it asked for anything or not.
    """
    total_w = sum(float(w) for w in weights)
    return [capacity * float(w) / total_w for w in weights]


def uniform_share_reference(
    demands: Sequence[float],
    weights: Sequence[float],
    capacity: float,
    activity_threshold_iops: float = 0.0,
) -> List[float]:
    """Loop-based twin of the ``uniform-share`` baseline.

    Capacity split equally across the active stages; weights ignored.
    """
    active = [i for i, d in enumerate(demands) if d > activity_threshold_iops]
    alloc = [0.0] * len(demands)
    if active:
        share = capacity / len(active)
        for i in active:
            alloc[i] = share
    return alloc


def naive_proportional_reference(
    demands: Sequence[float],
    weights: Sequence[float],
    capacity: float,
    activity_threshold_iops: float = 0.0,
) -> List[float]:
    """Loop-based twin of the ``naive-proportional`` baseline.

    Weight-proportional split of capacity over the active stages, with
    no demand clamp — a stage can be granted more than it asked for.
    """
    active = [i for i, d in enumerate(demands) if d > activity_threshold_iops]
    alloc = [0.0] * len(demands)
    if active:
        total_w = sum(float(weights[i]) for i in active)
        for i in active:
            alloc[i] = capacity * float(weights[i]) / total_w
    return alloc


def max_min_fair_reference(
    demands: Sequence[float],
    weights: Sequence[float],
    capacity: float,
    activity_threshold_iops: float = 0.0,
) -> List[float]:
    """Loop-based twin of the ``max-min-fair`` baseline.

    Unweighted water-fill over the active stages — classic max-min
    fairness, demand-clamped.
    """
    active = [i for i, d in enumerate(demands) if d > activity_threshold_iops]
    alloc = [0.0] * len(demands)
    if active:
        filled = waterfill_reference(
            [float(demands[i]) for i in active], [1.0] * len(active), capacity
        )
        for i, f in zip(active, filled):
            alloc[i] = f
    return alloc

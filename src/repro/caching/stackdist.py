"""Stack-distance analysis: predict the LRU hit ratio without replay.

The classic inclusion-property result: an LRU cache of capacity ``k``
hits a reference exactly when its *stack reuse distance* (the number of
distinct items referenced since the previous reference to the same item)
is strictly below ``k``.  One pass over the trace therefore yields the
hit ratio of **every** capacity at once — the analytical bridge from a
workload to the model's ``H`` without running a cache at all.

:func:`lru_hit_ratios` returns the whole curve; property tests pin it
against actual :class:`~repro.caching.base.ConfigCache` replays.
"""

from __future__ import annotations

import numpy as np

from ..workloads.task import CallTrace

__all__ = [
    "lru_hit_ratios",
    "lru_hit_ratio",
    "capacity_for_hit_ratio",
    "miss_curve",
]


def lru_hit_ratios(trace: CallTrace, max_slots: int) -> np.ndarray:
    """Hit ratio of an LRU cache for every capacity ``1..max_slots``.

    ``out[k-1]`` is the hit ratio at ``k`` slots.  Computed from the
    trace's reuse-distance histogram in one pass.
    """
    if max_slots <= 0:
        raise ValueError("max_slots must be >= 1")
    hist = trace.reuse_distance_histogram()
    n = trace.n_calls
    hits = np.zeros(max_slots, dtype=np.float64)
    for distance, count in hist.items():
        # A reuse at stack distance d hits every capacity k > d.
        if distance < max_slots:
            hits[distance:] += count
    return hits / n


# Kept as the analytic oracle for the PRTR executor's LRU hit ratio in
# tests/integration/test_cross_consistency.py
# (test_stackdist_predicts_executor_hit_ratio).
def lru_hit_ratio(  # reprolint: disable=RL010
    trace: CallTrace, slots: int
) -> float:
    """The LRU hit ratio at one capacity (no cache simulation)."""
    if slots <= 0:
        raise ValueError("slots must be >= 1")
    return float(lru_hit_ratios(trace, slots)[slots - 1])


def miss_curve(trace: CallTrace, max_slots: int) -> np.ndarray:
    """Miss ratio per capacity (``1 - hit``); monotone non-increasing."""
    return 1.0 - lru_hit_ratios(trace, max_slots)


def capacity_for_hit_ratio(
    trace: CallTrace, target: float, max_slots: int = 64
) -> int | None:
    """Smallest PRR count achieving ``target`` hit ratio under LRU.

    Returns ``None`` when even ``max_slots`` falls short (compulsory
    misses bound the achievable ``H`` at ``1 - distinct/n``).
    """
    if not 0.0 <= target <= 1.0:
        raise ValueError("target must be in [0, 1]")
    curve = lru_hit_ratios(trace, max_slots)
    meets = np.nonzero(curve >= target - 1e-12)[0]
    return int(meets[0]) + 1 if len(meets) else None

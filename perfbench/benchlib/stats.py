"""Percentiles for the benchmark's latency samples."""

from __future__ import annotations

from typing import Dict, Sequence


def binned_quantile(counts: Dict[int, int], q: float) -> float:
    """Quantile ``q`` of integer samples given as ``{value: count}``.

    Round latencies are whole numbers, so a plain percentile jumps from one
    integer to the next when a few samples move.  Each integer ``k`` is
    treated as its samples spread evenly over ``[k - 0.5, k + 0.5)`` (the
    grouped-data median), which makes the quantile move smoothly with the
    distribution's shape.
    """
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("no samples")
    target = q * total
    below = 0
    for value in sorted(counts):
        count = counts[value]
        if count and below + count >= target:
            return value - 0.5 + (target - below) / count
        below += count
    return max(counts) + 0.5


def quantile(samples: Sequence[float], q: float) -> float:
    """Quantile ``q`` of real-valued samples, linearly interpolated between
    order statistics (numpy's default method)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)

"""Percentiles that refuse to extrapolate, and run-to-run spreads."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only with at least this many samples above it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when the tail is thin.

    The nearest-rank percentile is the ``ceil(q/100 * n)``-th smallest
    sample; it is reported only when :data:`MIN_TAIL_SAMPLES` samples lie
    beyond it, so p99 needs 1,000 samples and p50 needs 20.
    """
    if not 0 < q < 100:
        raise ValueError("q must be inside (0, 100)")
    count = len(values)
    rank = max(1, math.ceil(q / 100.0 * count))
    if count - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / median if median else math.inf

"""Summaries that say how far one run's figures can be trusted."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between order
    statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _binomial_cdf(k: int, n: int) -> float:
    return sum(math.comb(n, i) for i in range(k + 1)) / 2.0**n


def median_interval(values: Sequence[float], level: float = 0.95):
    """A distribution-free confidence interval of the median from order
    statistics: the widest ranks ``j`` and ``n + 1 - j`` whose binomial
    tail stays within ``(1 - level) / 2``.  Below six samples no such
    ranks exist and the interval is the sample's range."""
    ordered = sorted(values)
    n = len(ordered)
    tail = (1.0 - level) / 2.0
    j = 0
    while j + 1 <= n // 2 and _binomial_cdf(j, n) <= tail:
        j += 1
    j = max(j, 1)
    return ordered[j - 1], ordered[n - j]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, sample count and the relative width of the
    median's confidence interval (RCIW)."""
    values = list(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    low, high = median_interval(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "rciw": (high - low) / median if median else 0.0,
    }

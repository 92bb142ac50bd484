"""Order statistics shared by run.py, repeat.py and the tests."""

from __future__ import annotations

import statistics

#: Candidate percentiles, highest first, for ``tail_percentile``.
PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is only reported with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """The p-th percentile by linear interpolation between order statistics.

    Matches ``statistics.quantiles(values, n=100, method="inclusive")`` at
    whole percentiles; one sample is its own percentile.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * p / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int, beyond: int = MIN_BEYOND) -> float | None:
    """The highest candidate percentile with at least ``beyond`` samples above it."""
    for p in PERCENTILES:
        if count * (100 - p) / 100 >= beyond - 1e-9:
            return p
    return None


def samples_for(p: float, beyond: int = MIN_BEYOND) -> int:
    """The fewest samples that leave ``beyond`` of them above the p-th percentile."""
    return round(beyond * 100 / (100 - p))


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

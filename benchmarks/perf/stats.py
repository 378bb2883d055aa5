"""Summary statistics of the perf benchmark.

Everything here is pure arithmetic over lists of numbers, shared by the
runner, the self-check and the tests.  Percentiles are nearest-rank over
the whole sample of a run, and **the percentile rule** says which tail
may be printed: one with at least :data:`MIN_BEYOND` samples beyond it,
so a p99 of 400 samples (4 beyond) is never printed as if it were a
measurement.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10
#: The tail ladder the percentile rule picks from.
PERCENTILES: Tuple[float, ...] = (0.5, 0.9, 0.99, 0.999, 0.9999)


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0..1) of an ascending sample list."""
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(0, min(len(ordered), _rank(len(ordered), q)) - 1)]


def _rank(count: int, q: float) -> int:
    """Nearest rank of the ``q``-quantile among ``count`` samples (1-based).

    Rounded before the ceiling: ``0.9 * 100`` is ``90.00000000000001`` in
    binary floating point and must still rank 90.
    """
    return math.ceil(round(q * count, 9))


def supported(count: int, q: float) -> bool:
    """True when ``count`` samples leave :data:`MIN_BEYOND` beyond ``q``."""
    return count - _rank(count, q) >= MIN_BEYOND


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest rung of :data:`PERCENTILES` that ``count`` supports."""
    best = None
    for q in PERCENTILES:
        if supported(count, q):
            best = q
    return best


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def differs_by(first: float, second: float) -> float:
    """Share of ``first`` by which ``second`` differs from it, either way."""
    if first == second:
        return 0.0
    return abs(second - first) / abs(first) if first else float("inf")


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, min and max of one metric over a set of repetitions."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }

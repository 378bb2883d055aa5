"""Shared time-series helpers over timestamped records.

:class:`repro.sim.metrics.MetricsCollector` slices its message records
into windows and halves for the paper's time-axis plots, and totals
them; trace post-processing (:mod:`repro.obs.report`) needs the exact
same slicing and totals over :class:`repro.obs.trace.TraceEvent`
streams **without re-running the simulation**.  Both go through these
generic helpers, so the bucketing, split and totals logic exists once.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple, TypeVar, Union

T = TypeVar("T")
Number = Union[int, float]


def bucket_series(
    items: Iterable[T],
    window_ms: float,
    *,
    time: Callable[[T], float],
    value: Callable[[T], Number],
) -> List[Tuple[float, Number]]:
    """Sum ``value`` per ``window_ms`` bucket of ``time``, sorted.

    Returns ``[(bucket_start_ms, total), ...]``; empty buckets are
    omitted, matching the historical ``units_series`` behaviour.
    """
    buckets: dict = {}
    for item in items:
        index = int(time(item) // window_ms)
        buckets[index] = buckets.get(index, 0) + value(item)
    return [(index * window_ms, total) for index, total in sorted(buckets.items())]


def cumulative(series: Sequence[Tuple[float, Number]]) -> List[Tuple[float, Number]]:
    """Running total of an ``[(time, value), ...]`` series."""
    running: Number = 0
    out: List[Tuple[float, Number]] = []
    for when, value in series:
        running += value
        out.append((when, running))
    return out


def partition_at(
    items: Iterable[T],
    cutoff: float,
    *,
    time: Callable[[T], float],
) -> Tuple[List[T], List[T]]:
    """Split items into (before ``cutoff``, at-or-after ``cutoff``).

    The boundary convention (``< cutoff`` goes first) is the one
    ``MetricsCollector.split_at`` has always used for the Figure 11
    first/second-half comparison; trace reports reuse it so both views
    of the same run agree on which half an event lands in.
    """
    before: List[T] = []
    after: List[T] = []
    for item in items:
        (before if time(item) < cutoff else after).append(item)
    return before, after


def wire_totals(records: Iterable) -> Dict[str, int]:
    """Message count and byte and unit sums over wire records.

    A :class:`~repro.sim.metrics.MessageRecord` and a ``send`` trace
    event carry the same four size fields, so this one fold gives both
    the collector's totals and the totals re-derived from a trace file.
    """
    totals = {
        "messages": 0,
        "payload_bytes": 0,
        "metadata_bytes": 0,
        "payload_units": 0,
        "metadata_units": 0,
    }
    for record in records:
        totals["messages"] += 1
        totals["payload_bytes"] += record.payload_bytes
        totals["metadata_bytes"] += record.metadata_bytes
        totals["payload_units"] += record.payload_units
        totals["metadata_units"] += record.metadata_units
    return totals

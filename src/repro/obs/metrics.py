"""The metrics registry: named counters, gauges, and histograms.

One namespace per replica holds every count it keeps: the
anti-entropy scheduler, the repair and handoff planes (``scheduler.*``)
and the write-ahead log (``wal.*``) all increment counters of the
replica's one registry, and the cluster drivers sum those namespaces
across replicas.

* instruments are **created once and found again**: asking for an
  existing name returns the same object, which is what lets a store
  rebuilt by ``crash(lose_state=True)`` re-bind to the counters its
  predecessor incremented instead of resetting them (the registry,
  like the WAL, deliberately outlives the store incarnation);
* ``snapshot()`` is **deterministic**: names are sorted and values are
  plain numbers, so two seeded runs produce byte-identical exports.

The instruments are deliberately minimal — this is measurement for a
deterministic reproduction, not a live telemetry pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time numeric value (goes up and down)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Summary statistics of observed values (count/sum/min/max).

    Full distributions live in the trace (every event carries its own
    measurements); the histogram keeps only the aggregates a snapshot
    export needs, so enabling metrics never grows memory with the run.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: Number = 0
        self.min: Number = 0
        self.max: Number = 0

    def observe(self, value: Number) -> None:
        if self.count == 0 or value < self.min:
            self.min = value
        if self.count == 0 or value > self.max:
            self.max = value
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.3g})"


class MetricsRegistry:
    """One replica's instrument namespace, surviving store rebuilds."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, kind: type):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name)
            self._instruments[name] = instrument
        elif type(instrument) is not kind:
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get-or-create the named counter."""
        return self._get(name, Counter)

    def counters(self, prefix: str, names: Sequence[str]) -> Dict[str, Counter]:
        """Get-or-create ``prefix + name`` for each name, keyed by name.

        Each owner declares its counters as one tuple of names; creating
        them at construction means a snapshot (or a cluster's stats sum)
        sees every key from the start, and on a registry that outlives
        store rebuilds the counts of a ``crash(lose_state=True)``
        incarnation carry over.
        """
        return {name: self.counter(prefix + name) for name in names}

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the named gauge."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get-or-create the named histogram."""
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Number]:
        """Every instrument as ``{name: value}``, sorted.

        Histograms export as ``name.count`` / ``name.sum`` /
        ``name.min`` / ``name.max`` so the result stays a flat mapping
        of plain numbers.
        """
        out: Dict[str, Number] = {}
        for name, instrument in self._instruments.items():
            if isinstance(instrument, Histogram):
                out[f"{name}.count"] = instrument.count
                out[f"{name}.sum"] = instrument.total
                out[f"{name}.min"] = instrument.min
                out[f"{name}.max"] = instrument.max
            else:
                out[name] = instrument.value  # type: ignore[attr-defined]
        return dict(sorted(out.items()))

    def __repr__(self) -> str:
        return f"MetricsRegistry(instruments={len(self._instruments)})"

"""The metrics registry: named counters.

One namespace per replica holds every count it keeps: the
anti-entropy scheduler, the repair and handoff planes (``scheduler.*``)
and the write-ahead log (``wal.*``) all increment counters of the
replica's one registry, and the cluster drivers sum those namespaces
across replicas.

* counters are **created once and found again**: asking for an
  existing name returns the same object, which is what lets a store
  rebuilt by ``crash(lose_state=True)`` re-bind to the counters its
  predecessor incremented instead of resetting them (the registry,
  like the WAL, deliberately outlives the store incarnation);
* ``snapshot()`` is **deterministic**: names are sorted and values are
  plain integers, so two seeded runs produce byte-identical exports.

Counters are the only kind: every registry value of a killed replica
process can be summed into the run's totals
(``ProcessCluster._fold_dead``).  A gauge or a histogram comes back with
its first caller and a fold rule of its own.  This is measurement for a
deterministic reproduction, not a live telemetry pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


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


class MetricsRegistry:
    """One replica's counter namespace, surviving store rebuilds."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Get-or-create the named counter."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def counters(self, prefix: str, names: Sequence[str]) -> Dict[str, Counter]:
        """Get-or-create ``prefix + name`` for each name, keyed by name.

        Each owner declares its counters as one tuple of names; creating
        them at construction means a snapshot (or a cluster's stats sum)
        sees every key from the start, and on a registry that outlives
        store rebuilds the counts of a ``crash(lose_state=True)``
        incarnation carry over.
        """
        return {name: self.counter(prefix + name) for name in names}

    def names(self) -> List[str]:
        return sorted(self._counters)

    def snapshot(self) -> Dict[str, int]:
        """Every counter as ``{name: value}``, sorted."""
        return {name: self._counters[name].value for name in sorted(self._counters)}

    def __repr__(self) -> str:
        return f"MetricsRegistry(counters={len(self._counters)})"

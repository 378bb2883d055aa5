"""Grow-only map — the ``GMap K%`` type of Table I.

A ``GMap`` binds keys to values from any lattice; join is pointwise.
The paper's micro-benchmark drives it with monotonically refreshed
values (each update inflates the value under its key), making the
GCounter "a particular case of GMap K% in which K = 100" — every key
(one per replica) is touched between synchronization rounds.

This implementation is generic over the value lattice.  For the
benchmarks we bind keys to :class:`~repro.lattice.primitives.MaxInt`
refresh counters; the Retwis application binds tweet identifiers to
immutable content registers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable

from repro.crdt.base import Crdt, delta_mutator, query
from repro.lattice.base import Lattice
from repro.lattice.map_lattice import MapLattice
from repro.lattice.primitives import Chain, MaxInt


class GMap(Crdt):
    """A map whose bindings only ever inflate.

    >>> m = GMap("A")
    >>> _ = m.put("k", MaxInt(1))
    >>> _ = m.put("k", MaxInt(5))
    >>> m.get("k")
    MaxInt(5)
    """

    __slots__ = ()

    bottom = MapLattice

    @delta_mutator
    def put(replica: Hashable, state: MapLattice, key: Hashable, value: Lattice) -> MapLattice:
        """Join ``value`` into the binding for ``key``.

        The delta is the one-entry map ``{k ↦ ∆(value, current)}`` —
        bottom when the write is already dominated.
        """
        current = state.get(key)
        if current is None:
            return MapLattice({key: value})
        novel = value.delta(current)
        if novel.is_bottom:
            return state.bottom_like()
        return MapLattice({key: novel})

    @delta_mutator
    def bump(replica: Hashable, state: MapLattice, key: Hashable) -> MapLattice:
        """Increment a ``MaxInt``-valued binding — the Table I update.

        "change the value of a key" in the micro-benchmark: each refresh
        inflates the per-key counter by one, so every round produces a
        genuinely new binding to disseminate.
        """
        current = state.get(key)
        base = current.value if isinstance(current, MaxInt) else 0
        return GMap.put(replica, state, key, MaxInt(base + 1))

    @delta_mutator
    def put_chain(
        replica: Hashable, state: MapLattice, key: Hashable, value: Any, bottom: Any = ""
    ) -> MapLattice:
        """Bind ``key`` to a :class:`Chain`-wrapped immutable value.

        Convenience for write-once registers such as tweet bodies in the
        Retwis workload.
        """
        return GMap.put(replica, state, key, Chain(value, bottom=bottom))

    @query
    def bindings(state: MapLattice) -> Dict[Hashable, Lattice]:
        """Every binding, as a plain dict."""
        return dict(state.items())

    def update(self, key: Hashable, fn: Callable[[Lattice | None], Lattice]) -> MapLattice:
        """Compute a new value for ``key`` from its current binding.

        ``fn`` receives the current value (or ``None`` when unbound) and
        must return a value that inflates it; the resulting delta is
        joined in and returned.
        """
        return self.put(key, fn(self.state.get(key)))

    def get(self, key: Hashable) -> Lattice | None:
        """The binding for ``key`` (``None`` when unbound)."""
        return self.state.get(key)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.state

    def __len__(self) -> int:
        return len(self.state)

"""Grow-only counter — Figure 2a of the paper.

The state maps replica identifiers to per-replica increment tallies,
``GCounter = I ↪→ ℕ``; the counter value is the sum of the entries.
The mutator ``inc`` bumps the local replica's entry; its optimal
δ-mutator returns just the updated entry (a one-entry map), which is
the irreducible ``{i ↦ p(i) + 1}``.
"""

from __future__ import annotations

from typing import Hashable

from repro.crdt.base import Crdt, delta_mutator, query
from repro.lattice.map_lattice import MapLattice
from repro.lattice.primitives import MaxInt


def positive(by: int, what: str) -> int:
    """``by``, checked: a counting δ-mutator only ever adds."""
    if by <= 0:
        raise ValueError(f"{what} must be positive, got {by}")
    return by


class GCounter(Crdt):
    """A counter that only grows, summed across per-replica entries.

    >>> a, b = GCounter("A"), GCounter("B")
    >>> _ = a.increment(); _ = b.increment(); _ = b.increment()
    >>> a.merge(b)
    >>> a.value
    3
    >>> GCounter.increment("A", a.state, 2)     # the δ alone, nothing joined
    MapLattice({'A': MaxInt(3)})
    """

    __slots__ = ()

    bottom = MapLattice

    @delta_mutator
    def increment(replica: Hashable, state: MapLattice, by: int = 1) -> MapLattice:
        """``incδ``: the single updated entry ``{i ↦ p(i) + by}``."""
        current = state.get(replica)
        base = current.value if isinstance(current, MaxInt) else 0
        return MapLattice({replica: MaxInt(base + positive(by, "increment"))})

    @query
    def value(state: MapLattice) -> int:
        """``value(p) = Σ { v | k ↦ v ∈ p }``."""
        return sum(entry.value for _, entry in state.items())

    def entry(self, replica: Hashable) -> int:
        """The tally recorded for one replica (0 when absent)."""
        found = self.state.get(replica)
        return found.value if isinstance(found, MaxInt) else 0

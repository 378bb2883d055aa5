"""Positive-negative counter — the Appendix C composition example.

``PNCounter = I ↪→ (ℕ × ℕ)``: each replica entry pairs an increment
tally with a decrement tally, composed with the cartesian product.  The
counter value is the sum of increments minus the sum of decrements.

Appendix C shows its decomposition splits each entry into separate
increment and decrement irreducibles, e.g.::

    ⇓{A ↦ ⟨2,3⟩, B ↦ ⟨5,5⟩} =
        {{A ↦ ⟨2,0⟩}, {A ↦ ⟨0,3⟩}, {B ↦ ⟨5,0⟩}, {B ↦ ⟨0,5⟩}}
"""

from __future__ import annotations

from typing import Hashable, Tuple

from repro.crdt.base import Crdt, delta_mutator, query
from repro.crdt.gcounter import positive
from repro.lattice.map_lattice import MapLattice
from repro.lattice.primitives import MaxInt
from repro.lattice.product import PairLattice


def pn_entry(inc: int, dec: int) -> PairLattice:
    """One replica's ``⟨increments, decrements⟩`` pair."""
    return PairLattice(MaxInt(inc), MaxInt(dec))


def tallies(state: MapLattice, replica: Hashable) -> Tuple[int, int]:
    """The ``(increments, decrements)`` ``state`` records for ``replica``."""
    found = state.get(replica)
    if not isinstance(found, PairLattice):
        return (0, 0)
    return (found.first.value, found.second.value)


def net_total(state: MapLattice) -> int:
    """Total increments minus total decrements, over all replicas."""
    total = 0
    for _, pair in state.items():
        assert isinstance(pair, PairLattice)
        total += pair.first.value - pair.second.value
    return total


class PNCounter(Crdt):
    """A counter supporting increments and decrements.

    >>> c = PNCounter("A")
    >>> _ = c.increment(5); _ = c.decrement(2)
    >>> c.value
    3
    """

    __slots__ = ()

    bottom = MapLattice

    @delta_mutator
    def increment(replica: Hashable, state: MapLattice, by: int = 1) -> MapLattice:
        """Raise the local increment tally: one entry, the new tally."""
        inc, _ = tallies(state, replica)
        return MapLattice({replica: pn_entry(inc + positive(by, "increment"), 0)})

    @delta_mutator
    def decrement(replica: Hashable, state: MapLattice, by: int = 1) -> MapLattice:
        """Raise the local decrement tally: one entry, the new tally."""
        _, dec = tallies(state, replica)
        return MapLattice({replica: pn_entry(0, dec + positive(by, "decrement"))})

    value = query(net_total)

    def tallies(self, replica: Hashable) -> Tuple[int, int]:
        """The ``(increments, decrements)`` recorded for a replica."""
        return tallies(self.state, replica)

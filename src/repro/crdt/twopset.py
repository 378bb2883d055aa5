"""Two-phase set: a cartesian product of two grow-only sets.

A classic CRDT composition example: the first component accumulates
additions, the second accumulates removals (tombstones), and membership
is "added and not removed".  A removed element can never be re-added —
the removal tombstone dominates forever — which is precisely the
product lattice's semantics.
"""

from __future__ import annotations

from typing import AbstractSet, Hashable

from repro.crdt.base import Crdt, delta_mutator, query
from repro.lattice.product import PairLattice
from repro.lattice.set_lattice import SetLattice


class TwoPSet(Crdt):
    """A set with permanent removals.

    >>> s = TwoPSet("A")
    >>> _ = s.add("x"); _ = s.add("y"); _ = s.remove("x")
    >>> sorted(s.value)
    ['y']
    >>> "x" in s
    False
    """

    __slots__ = ()

    bottom = staticmethod(lambda: PairLattice(SetLattice(), SetLattice()))

    @delta_mutator
    def add(replica: Hashable, state: PairLattice, element: Hashable) -> PairLattice:
        """Add ``element``; bottom delta if already added."""
        if element in state.first:
            return state.bottom_like()
        return PairLattice(SetLattice((element,)), SetLattice())

    @delta_mutator
    def remove(replica: Hashable, state: PairLattice, element: Hashable) -> PairLattice:
        """Tombstone ``element``; requires it to have been added.

        Removing a never-added element raises: 2P-set semantics only
        allow removing observed elements.
        """
        if element not in state.first:
            raise KeyError(f"cannot remove {element!r}: never added")
        if element in state.second:
            return state.bottom_like()
        return PairLattice(SetLattice(), SetLattice((element,)))

    @query
    def value(state: PairLattice) -> AbstractSet[Hashable]:
        """Added elements that are not tombstoned."""
        return state.first.elements - state.second.elements

    def __contains__(self, element: Hashable) -> bool:
        return element in self.value

    def __len__(self) -> int:
        return len(self.value)

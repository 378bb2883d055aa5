"""Grow-only set — Figure 2b of the paper.

The state is the powerset lattice under union.  The optimal δ-mutator
``addδ`` returns the singleton ``{e}`` only when ``e`` is new, and ``⊥``
otherwise — the paper points out that the original formulation (always
returning ``{e}``) is a source of redundant delta propagation.
"""

from __future__ import annotations

from typing import AbstractSet, Hashable

from repro.crdt.base import Crdt, delta_mutator, query
from repro.lattice.set_lattice import SetLattice


class GSet(Crdt):
    """A set that only accumulates elements.

    >>> a, b = GSet("A"), GSet("B")
    >>> _ = a.add("x"); _ = b.add("y")
    >>> a.merge(b)
    >>> sorted(a.value)
    ['x', 'y']
    """

    __slots__ = ()

    bottom = SetLattice

    @delta_mutator
    def add(replica: Hashable, state: SetLattice, element: Hashable) -> SetLattice:
        """The paper's optimal ``addδ``: ``{e}`` if new, ``⊥`` if present."""
        if element in state:
            return state.bottom_like()
        return SetLattice((element,))

    @query
    def value(state: SetLattice) -> AbstractSet[Hashable]:
        """``value(s) = s`` — the accumulated element set."""
        return state.elements

    def __contains__(self, element: Hashable) -> bool:
        return element in self.state

    def __len__(self) -> int:
        return len(self.state)

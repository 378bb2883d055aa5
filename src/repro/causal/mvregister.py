"""Causal multi-value register: ``DotFun⟨Atom⟩``.

A register whose concurrent writes are all retained; a read returns the
set of values written by the maximal (mutually concurrent) writes, and
a new write covers every value the writer has observed.  This is the
register semantics of Riak and of the original Shapiro et al. MVRegister,
expressed in the causal framework so it composes with every
synchronizer in the library and decomposes into optimal deltas (one
dot-value pair per write, plus the covered dots as context).  It is
the library's only multi-value register, and the one to nest inside
OR-maps.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable

from repro.causal.atom import Atom
from repro.causal.causal import Causal
from repro.causal.dots import CausalContext
from repro.causal.stores import DotFun
from repro.crdt.base import Crdt, delta_mutator, query


class CausalMVRegister(Crdt):
    """A multi-value register with optimal write deltas.

    >>> a, b = CausalMVRegister("A"), CausalMVRegister("B")
    >>> _ = a.write(1)
    >>> _ = b.write(2)                     # concurrent with a's write
    >>> a.merge(b)
    >>> sorted(a.values)
    [1, 2]
    >>> _ = a.write(3)                     # observes both, covers both
    >>> b.merge(a)
    >>> sorted(b.values)
    [3]
    """

    __slots__ = ()

    bottom = staticmethod(Causal.fun_bottom)

    @delta_mutator
    def write(replica: Hashable, state: Causal, value: Hashable) -> Causal:
        """One fresh dot-value pair, superseding every observed value."""
        dot = state.context.next_dot(replica)
        covered = set(state.store.dots())
        covered.add(dot)
        return Causal(DotFun({dot: Atom(value)}), CausalContext.from_dots(covered))

    @query
    def values(state: Causal) -> FrozenSet[Hashable]:
        """The surviving concurrently-written values (empty if unwritten)."""
        return frozenset(atom.value for atom in state.store.values())

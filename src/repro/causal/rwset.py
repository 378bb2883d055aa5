"""Remove-wins observed-remove set: ``DotMap⟨E × {add, rmv}, DotSet⟩``.

The policy dual of :class:`~repro.causal.awset.AWSet`: under a
concurrent add and remove of the same element, the remove prevails.
Each element keeps *two* dot sets — one for surviving add assertions
and one for surviving remove assertions — and membership requires an
add assertion with no standing remove assertion.  Asserting either side
covers the observed dots of **both** sides, which is what gives the
fresher concurrent assertion its victory.
"""

from __future__ import annotations

from functools import partial
from typing import FrozenSet, Hashable, Iterator, Set

from repro.causal.causal import Causal
from repro.causal.dots import CausalContext
from repro.causal.stores import DotMap, DotSet
from repro.crdt.base import Crdt, delta_mutator, query

#: Tags distinguishing the two assertion sides of an element.
_ADD = True
_RMV = False


def _assert(replica: Hashable, state: Causal, element: Hashable, side: bool) -> Causal:
    """δ-mutator: one fresh dot on ``side``, covering both sides' observed dots."""
    dot = state.context.next_dot(replica)
    covered: Set = {dot}
    for tag in (_ADD, _RMV):
        existing = state.store.get((element, tag))
        if existing is not None:
            covered |= existing.dots()
    return Causal(
        DotMap({(element, side): DotSet((dot,))}),
        CausalContext.from_dots(covered),
    )


class RWSet(Crdt):
    """A remove-wins set with optimal assertion deltas.

    >>> a, b = RWSet("A"), RWSet("B")
    >>> _ = a.add("milk")
    >>> b.merge(a)
    >>> _ = b.remove("milk")
    >>> _ = a.add("milk")                  # concurrent re-add
    >>> a.merge(b); b.merge(a)
    >>> a.contains("milk") or b.contains("milk")   # remove wins
    False
    """

    __slots__ = ()

    bottom = staticmethod(Causal.map_bottom)

    #: Assert membership of an element.
    add = delta_mutator(partial(_assert, side=_ADD))
    #: Assert removal of an element.
    remove = delta_mutator(partial(_assert, side=_RMV))

    @query
    def value(state: Causal) -> FrozenSet[Hashable]:
        """Elements with a surviving add assertion and no remove assertion."""
        return frozenset(
            element
            for (element, tag) in state.store.keys()
            if tag == _ADD and (element, _RMV) not in state.store
        )

    def contains(self, element: Hashable) -> bool:
        """Membership: a surviving add assertion and no remove assertion."""
        return (element, _ADD) in self.state.store and (
            element,
            _RMV,
        ) not in self.state.store

    def __contains__(self, element: Hashable) -> bool:
        return self.contains(element)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.value)

    def __len__(self) -> int:
        return len(self.value)

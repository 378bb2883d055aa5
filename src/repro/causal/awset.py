"""Add-wins observed-remove set: ``DotMap⟨E, DotSet⟩``.

The workhorse causal CRDT: a set supporting both additions and
removals, where a removal only affects the additions it has *observed*
— a concurrent add survives (add wins).  Each element maps to the set
of dots of its surviving add events; removing an element drops its dots
from the store while the causal context keeps remembering them.

Every mutator returns the optimal delta of Section III-B: an add ships
one fresh dot (plus the covered dots as context); a remove ships no
payload at all, only the removed dots in the context — which is what
makes delta-based synchronization of OR-sets so much cheaper than
shipping tombstoned full states.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterator, Set

from repro.causal.causal import Causal, cover_key, cover_observed
from repro.causal.dots import CausalContext
from repro.causal.stores import DotMap, DotSet
from repro.crdt.base import Crdt, delta_mutator, query


class AWSet(Crdt):
    """An add-wins set with optimal add/remove deltas.

    >>> a, b = AWSet("A"), AWSet("B")
    >>> _ = a.add("milk")
    >>> b.merge(a)
    >>> _ = b.remove("milk")
    >>> _ = a.add("milk")                  # concurrent re-add
    >>> a.merge(b); b.merge(a)
    >>> a.contains("milk") and b.contains("milk")
    True
    """

    __slots__ = ()

    bottom = staticmethod(Causal.map_bottom)

    @delta_mutator
    def add(replica: Hashable, state: Causal, element: Hashable) -> Causal:
        """One fresh dot for ``element``, covering its old dots.

        Covering the element's observed dots lets the join retire them,
        so long-lived elements do not accumulate one dot per re-add.
        """
        dot = state.context.next_dot(replica)
        existing = state.store.get(element)
        covered: Set = set(existing.dots()) if existing is not None else set()
        covered.add(dot)
        return Causal(
            DotMap({element: DotSet((dot,))}), CausalContext.from_dots(covered)
        )

    #: No payload, just the element's observed dots.
    remove = delta_mutator(cover_key)
    #: Every live dot covered, no payload.
    clear = delta_mutator(cover_observed)

    @query
    def value(state: Causal) -> FrozenSet[Hashable]:
        """The current set of elements."""
        return frozenset(state.store.keys())

    def contains(self, element: Hashable) -> bool:
        """True while ``element`` holds at least one surviving add dot."""
        return element in self.state.store

    def __contains__(self, element: Hashable) -> bool:
        return self.contains(element)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.state.store.keys())

    def __len__(self) -> int:
        return len(self.state.store)

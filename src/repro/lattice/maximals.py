"""Sets of maximal elements ``M(P)`` of a partial order.

``M(P)`` is the lattice of *antichains* of a partial order ``P``: sets
in which no element dominates another.  The join of two antichains is
the set of maximal elements of their union — dominated elements are
absorbed.  This construct underlies the multi-value register, where the
partial order is "version vector dominance" over tagged writes: a write
survives in the antichain until some causally later write dominates it.

Following Appendix C, the decomposition is ``⇓s = {{e} | e ∈ s}`` —
singleton antichains are the join-irreducibles.

The partial order over elements is supplied as a callable
``dominates(x, y)`` meaning ``y ⊑ x`` in ``P`` (``x`` absorbs ``y``).
It must be reflexive and transitive; equal elements are deduplicated by
hash as usual for Python sets.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

from repro import sizes
from repro.lattice.base import Lattice

Dominates = Callable[[Hashable, Hashable], bool]


def _maximals(elements: Iterable[Hashable], dominates: Dominates) -> frozenset:
    """Return the maximal elements of ``elements`` under ``dominates``."""
    pool = list(dict.fromkeys(elements))
    keep: list[Hashable] = []
    for candidate in pool:
        dominated = False
        for other in pool:
            if other is not candidate and other != candidate and dominates(other, candidate):
                dominated = True
                break
        if not dominated:
            keep.append(candidate)
    return frozenset(keep)


class MaxElements(Lattice):
    """An immutable antichain in ``M(P)`` with maximal-union join.

    >>> divides = lambda x, y: x % y == 0   # y ⊑ x when y divides x
    >>> a = MaxElements({4}, dominates=divides)
    >>> b = MaxElements({2, 3}, dominates=divides)
    >>> sorted(a.join(b).elements)
    [3, 4]
    """

    __slots__ = ("elements", "dominates")

    def __init__(self, elements: Iterable[Hashable] = (), *, dominates: Dominates) -> None:
        object.__setattr__(self, "dominates", dominates)
        object.__setattr__(self, "elements", _maximals(elements, dominates))

    # ------------------------------------------------------------------
    # Lattice protocol.
    # ------------------------------------------------------------------

    def join(self, other: "MaxElements") -> "MaxElements":
        if not other.elements:
            return self
        if not self.elements:
            return other
        return MaxElements(self.elements | other.elements, dominates=self.dominates)

    def leq(self, other: "MaxElements") -> bool:
        # s ⊑ s' iff every element of s is dominated by some element of s'.
        for element in self.elements:
            if not any(self.dominates(candidate, element) for candidate in other.elements):
                return False
        return True

    def bottom_like(self) -> "MaxElements":
        return MaxElements((), dominates=self.dominates)

    @property
    def is_bottom(self) -> bool:
        return not self.elements

    def decompose(self) -> Iterator["MaxElements"]:
        for element in self.elements:
            yield MaxElements((element,), dominates=self.dominates)

    def delta(self, other: "MaxElements") -> "MaxElements":
        missing = [
            element
            for element in self.elements
            if not any(self.dominates(candidate, element) for candidate in other.elements)
        ]
        return MaxElements(missing, dominates=self.dominates)

    def size_units(self) -> int:
        return len(self.elements)

    def size_bytes(self) -> int:
        return sum(sizes.sizeof(element) for element in self.elements)

    def __contains__(self, element: Hashable) -> bool:
        return element in self.elements

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MaxElements) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((MaxElements, self.elements))

    def __repr__(self) -> str:
        inner = ", ".join(repr(e) for e in sorted(self.elements, key=repr))
        return f"MaxElements({{{inner}}})"

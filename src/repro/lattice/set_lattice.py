"""The powerset lattice ``P(U)`` with set-union join.

This is the lattice of the grow-only set (Figure 2b of the paper).  Its
join-irreducibles are exactly the singletons, so the decomposition rule
of Appendix C is ``⇓s = {{e} | e ∈ s}`` and the optimal delta is plain
set difference.
"""

from __future__ import annotations

from typing import AbstractSet, Hashable, Iterable, Iterator

from repro import sizes
from repro.lattice.base import Lattice


class SetLattice(Lattice):
    """An immutable set under union, ``(P(U), ⊆, ∪)``.

    >>> SetLattice({"a"}).join(SetLattice({"b"})) == SetLattice({"a", "b"})
    True
    >>> sorted(min(x.elements) for x in SetLattice({"a", "b"}).decompose())
    ['a', 'b']
    """

    __slots__ = ("elements", "_bytes_cache")

    def __init__(self, elements: Iterable[Hashable] = ()) -> None:
        object.__setattr__(self, "elements", frozenset(elements))
        object.__setattr__(self, "_bytes_cache", None)

    # ------------------------------------------------------------------
    # Lattice protocol.
    # ------------------------------------------------------------------

    def join(self, other: "SetLattice") -> "SetLattice":
        if not other.elements:
            return self
        if not self.elements:
            return other
        return SetLattice(self.elements | other.elements)

    def leq(self, other: "SetLattice") -> bool:
        return self.elements <= other.elements

    def bottom_like(self) -> "SetLattice":
        return _EMPTY

    @property
    def is_bottom(self) -> bool:
        return not self.elements

    def decompose(self) -> Iterator["SetLattice"]:
        for element in self.elements:
            yield SetLattice((element,))

    def delta(self, other: "SetLattice") -> "SetLattice":
        missing = self.elements - other.elements
        return SetLattice(missing) if missing else _EMPTY

    def size_units(self) -> int:
        return len(self.elements)

    def size_bytes(self) -> int:
        nbytes = self._bytes_cache
        if nbytes is None:
            nbytes = sum(sizes.sizeof(element) for element in self.elements)
            # A memo, not a mutation: byte size is a pure function of the frozen elements.
            object.__setattr__(self, "_bytes_cache", nbytes)
        return nbytes

    # ------------------------------------------------------------------
    # Set conveniences.
    # ------------------------------------------------------------------

    def add(self, element: Hashable) -> "SetLattice":
        """Return a new set with ``element`` added (the ``add`` mutator)."""
        if element in self.elements:
            return self
        return SetLattice(self.elements | {element})

    def __contains__(self, element: Hashable) -> bool:
        return element in self.elements

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def value(self) -> AbstractSet[Hashable]:
        """The query function of the GSet: the set of elements."""
        return self.elements

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetLattice) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((SetLattice, self.elements))

    def __repr__(self) -> str:
        if len(self.elements) == 1:
            # One element (every irreducible): nothing to sort.
            (element,) = self.elements
            return f"SetLattice({{{element!r}}})"
        inner = ", ".join(repr(e) for e in sorted(self.elements, key=repr))
        return f"SetLattice({{{inner}}})"


_EMPTY = SetLattice()

"""Cartesian product ``A × B`` with componentwise join.

The product composes two lattices independently: both the order and the
join act per component.  The PNCounter uses it to pair increment and
decrement counts (Appendix C), and the 2P-Set pairs an add-set with a
remove-set.

Following Appendix C, the decomposition embeds each component's
irreducibles with the other component at bottom::

    ⇓⟨a, b⟩ = (⇓a × {⊥}) ∪ ({⊥} × ⇓b)
"""

from __future__ import annotations

from typing import Iterator

from repro.lattice.base import Lattice


class PairLattice(Lattice):
    """An immutable pair of lattice values joined componentwise.

    >>> p = PairLattice(MaxInt(2), MaxInt(3))
    >>> q = PairLattice(MaxInt(5), MaxInt(1))
    >>> p.join(q) == PairLattice(MaxInt(5), MaxInt(3))
    True
    """

    __slots__ = ("first", "second")

    def __init__(self, first: Lattice, second: Lattice) -> None:
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    # ------------------------------------------------------------------
    # Lattice protocol.
    # ------------------------------------------------------------------

    def join(self, other: "PairLattice") -> "PairLattice":
        return PairLattice(self.first.join(other.first), self.second.join(other.second))

    def leq(self, other: "PairLattice") -> bool:
        return self.first.leq(other.first) and self.second.leq(other.second)

    def bottom_like(self) -> "PairLattice":
        return PairLattice(self.first.bottom_like(), self.second.bottom_like())

    @property
    def is_bottom(self) -> bool:
        return self.first.is_bottom and self.second.is_bottom

    def decompose(self) -> Iterator["PairLattice"]:
        first_bottom = self.first.bottom_like()
        second_bottom = self.second.bottom_like()
        for irreducible in self.first.decompose():
            yield PairLattice(irreducible, second_bottom)
        for irreducible in self.second.decompose():
            yield PairLattice(first_bottom, irreducible)

    def delta(self, other: "PairLattice") -> "PairLattice":
        return PairLattice(self.first.delta(other.first), self.second.delta(other.second))

    def size_units(self) -> int:
        return self.first.size_units() + self.second.size_units()

    def size_bytes(self) -> int:
        return self.first.size_bytes() + self.second.size_bytes()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PairLattice)
            and self.first == other.first
            and self.second == other.second
        )

    def __hash__(self) -> int:
        return hash((PairLattice, self.first, self.second))

    def __repr__(self) -> str:
        return f"PairLattice({self.first!r}, {self.second!r})"

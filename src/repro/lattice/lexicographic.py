"""Lexicographic product ``C ⋉ A`` with a chain as first component.

The lexicographic product orders pairs by their first component and
falls back to the second only on ties::

    ⟨c, a⟩ ⊑ ⟨c', a'⟩  ⇔  c ⊏ c'  ∨  (c = c' ∧ a ⊑ a')

As Appendix B of the paper explains, the product is distributive —
and therefore enjoys unique irredundant decompositions — only when the
first component is a *chain* (total order).  That restriction matches
the construct's typical CRDT use under the single-writer principle: a
version number owned by one actor guards an arbitrarily-overwritable
payload, as in Cassandra counters and last-writer-wins registers.  This
implementation therefore requires the first component to be a chain-like
lattice (one whose ``leq`` is total); tests enforce it with the
primitives from :mod:`repro.lattice.primitives`.

Decomposition follows Appendix C (``⇓⟨c, a⟩ = ⇓c × ⇓a``) with the two
boundary cases the rule leaves implicit:

* ``⟨⊥, a⟩`` decomposes through ``a`` only: ``{⟨⊥, x⟩ | x ∈ ⇓a}``;
* ``⟨c, ⊥⟩`` with ``c ≠ ⊥`` is itself join-irreducible (no pair strictly
  below it joins back up to it), so it decomposes to itself.
"""

from __future__ import annotations

from typing import Iterator

from repro.lattice.base import Lattice


class LexPair(Lattice):
    """An immutable lexicographic pair ``⟨version-chain, payload⟩``.

    >>> low = LexPair(MaxInt(1), SetLattice({"x"}))
    >>> high = LexPair(MaxInt(2), SetLattice({"y"}))
    >>> low.join(high) == high   # higher version wins outright
    True
    """

    __slots__ = ("first", "second")

    def __init__(self, first: Lattice, second: Lattice) -> None:
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    # ------------------------------------------------------------------
    # Lattice protocol.
    # ------------------------------------------------------------------

    def join(self, other: "LexPair") -> "LexPair":
        if self.first == other.first:
            return LexPair(self.first, self.second.join(other.second))
        if self.first.leq(other.first):
            return other
        if other.first.leq(self.first):
            return self
        raise ValueError(
            "LexPair requires a totally ordered first component; "
            f"{self.first!r} and {other.first!r} are incomparable"
        )

    def leq(self, other: "LexPair") -> bool:
        if self.first == other.first:
            return self.second.leq(other.second)
        return self.first.leq(other.first)

    def bottom_like(self) -> "LexPair":
        return LexPair(self.first.bottom_like(), self.second.bottom_like())

    @property
    def is_bottom(self) -> bool:
        return self.first.is_bottom and self.second.is_bottom

    def decompose(self) -> Iterator["LexPair"]:
        if self.second.is_bottom:
            if not self.first.is_bottom:
                yield self
            return
        for irreducible in self.second.decompose():
            yield LexPair(self.first, irreducible)

    def delta(self, other: "LexPair") -> "LexPair":
        if self.first == other.first:
            second_delta = self.second.delta(other.second)
            if second_delta.is_bottom:
                return self.bottom_like()
            return LexPair(self.first, second_delta)
        if self.first.leq(other.first):
            # Every irreducible ⟨c, x⟩ of self sits below other already.
            return self.bottom_like()
        # self.first strictly above: nothing of self is below other.
        return self

    def size_units(self) -> int:
        if self.second.is_bottom:
            return 0 if self.first.is_bottom else 1
        return self.second.size_units()

    def size_bytes(self) -> int:
        if self.is_bottom:
            return 0
        return self.first.size_bytes() + self.second.size_bytes()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LexPair)
            and self.first == other.first
            and self.second == other.second
        )

    def __hash__(self) -> int:
        return hash((LexPair, self.first, self.second))

    def __repr__(self) -> str:
        return f"LexPair({self.first!r}, {self.second!r})"

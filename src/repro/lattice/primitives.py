"""Primitive lattices: chains of naturals, generic chains, and booleans.

Chains (total orders) are the building blocks of most practical CRDTs:
``GCounter`` maps replica identifiers to the ``MaxInt`` chain, and
last-writer-wins registers use a timestamp chain as the first component
of a lexicographic pair (Appendix B of the paper).

In a chain every non-bottom element is join-irreducible — each element
has exactly one element directly below it — so the decomposition rule is
simply ``⇓c = {c}`` for ``c ≠ ⊥`` (Appendix C).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro import sizes
from repro.lattice.base import Lattice


class MaxInt(Lattice):
    """The chain of natural numbers ``(ℕ, ≤, max)`` with bottom ``0``.

    This is the per-replica entry lattice of the grow-only counter in
    Figure 2a of the paper.

    >>> MaxInt(3).join(MaxInt(5))
    MaxInt(5)
    >>> MaxInt(0).is_bottom
    True
    """

    __slots__ = ("value",)
    fixed_size = True

    def __init__(self, value: int = 0) -> None:
        if value < 0:
            raise ValueError(f"MaxInt is a lattice over naturals, got {value}")
        object.__setattr__(self, "value", value)

    def join(self, other: "MaxInt") -> "MaxInt":
        return self if self.value >= other.value else other

    def leq(self, other: "MaxInt") -> bool:
        return self.value <= other.value

    def bottom_like(self) -> "MaxInt":
        return _MAX_INT_BOTTOM

    @property
    def is_bottom(self) -> bool:
        return self.value == 0

    def decompose(self) -> Iterator["MaxInt"]:
        if self.value > 0:
            yield self

    def delta(self, other: "MaxInt") -> "MaxInt":
        return self if self.value > other.value else _MAX_INT_BOTTOM

    def size_units(self) -> int:
        return 0 if self.value == 0 else 1

    def size_bytes(self) -> int:
        return 0 if self.value == 0 else sizes.INT_BYTES

    def increment(self, by: int = 1) -> "MaxInt":
        """Return a new value ``by`` steps up the chain (an inflation)."""
        if by < 0:
            raise ValueError("increment must be non-negative to be an inflation")
        return MaxInt(self.value + by)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MaxInt) and self.value == other.value

    def __hash__(self) -> int:
        return hash((MaxInt, self.value))

    def __repr__(self) -> str:
        return f"MaxInt({self.value})"


_MAX_INT_BOTTOM = MaxInt(0)


class Chain(Lattice):
    """A chain over any totally ordered Python values, with explicit bottom.

    ``Chain(value, bottom)`` lifts a totally ordered set (timestamps,
    version numbers, strings) into a lattice whose join is ``max``.  The
    bottom must compare ``<=`` every value ever used; for numeric
    timestamps ``0`` or ``-inf`` are typical choices.

    >>> Chain(7, bottom=0).join(Chain(3, bottom=0)).value
    7
    """

    __slots__ = ("value", "bottom_value", "_bytes_cache")

    def __init__(self, value: Any, bottom: Any = 0) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "bottom_value", bottom)
        object.__setattr__(self, "_bytes_cache", None)
        if value < bottom:
            raise ValueError(f"chain value {value!r} below bottom {bottom!r}")

    def join(self, other: "Chain") -> "Chain":
        return self if other.value <= self.value else other

    def leq(self, other: "Chain") -> bool:
        return self.value <= other.value

    def bottom_like(self) -> "Chain":
        return Chain(self.bottom_value, bottom=self.bottom_value)

    @property
    def is_bottom(self) -> bool:
        return self.value == self.bottom_value

    def decompose(self) -> Iterator["Chain"]:
        if not self.is_bottom:
            yield self

    def delta(self, other: "Chain") -> "Chain":
        return self if other.value < self.value else self.bottom_like()

    def size_units(self) -> int:
        return 0 if self.is_bottom else 1

    def size_bytes(self) -> int:
        if self.is_bottom:
            return 0
        nbytes = self._bytes_cache
        if nbytes is None:
            nbytes = sizes.sizeof(self.value)
            # A memo, not a mutation: byte size is a pure function of the frozen value.
            object.__setattr__(self, "_bytes_cache", nbytes)
        return nbytes

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Chain) and self.value == other.value

    def __hash__(self) -> int:
        return hash((Chain, self.value))

    def __repr__(self) -> str:
        return f"Chain({self.value!r})"


class Bool(Lattice):
    """The two-point lattice ``False ⊏ True`` with logical-or join.

    Useful as an enable flag and as the simplest possible lattice for
    exercising composition constructs in tests.
    """

    __slots__ = ("value",)
    fixed_size = True

    def __init__(self, value: bool = False) -> None:
        object.__setattr__(self, "value", bool(value))

    def join(self, other: "Bool") -> "Bool":
        return _BOOL_TRUE if (self.value or other.value) else _BOOL_FALSE

    def leq(self, other: "Bool") -> bool:
        return (not self.value) or other.value

    def bottom_like(self) -> "Bool":
        return _BOOL_FALSE

    @property
    def is_bottom(self) -> bool:
        return not self.value

    def decompose(self) -> Iterator["Bool"]:
        if self.value:
            yield self

    def delta(self, other: "Bool") -> "Bool":
        return _BOOL_TRUE if (self.value and not other.value) else _BOOL_FALSE

    def size_units(self) -> int:
        return 1 if self.value else 0

    def size_bytes(self) -> int:
        return sizes.BOOL_BYTES if self.value else 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bool) and self.value == other.value

    def __hash__(self) -> int:
        return hash((Bool, self.value))

    def __repr__(self) -> str:
        return f"Bool({self.value})"


_BOOL_FALSE = Bool(False)
_BOOL_TRUE = Bool(True)

"""Linear sum ``A ⊕ B``: every element of ``A`` below every element of ``B``.

The linear sum stacks lattice ``B`` on top of lattice ``A``.  It models
one-way phase transitions: a value starts in the ``A`` phase and can be
irrevocably promoted into the ``B`` phase (for example, a tombstone
lattice where any live value is overridden by "deleted").

Following the notation of Appendix B (Table IV footnote), instances are
tagged pairs — ``Left a`` or ``Right b``.  The bottom of ``A ⊕ B`` is
``Left ⊥_A``.  A ``Right`` value needs to know ``⊥_A`` to answer
``bottom_like``; the constructor therefore records it.

Decomposition (Appendix C) maps each side's irreducibles through the
tag.  The single boundary case is ``Right ⊥_B``, which is itself
join-irreducible — no finite join of ``Left`` values can cross into the
``Right`` phase — so it decomposes to itself.
"""

from __future__ import annotations

from typing import Iterator

from repro import sizes
from repro.lattice.base import Lattice

LEFT = "Left"
RIGHT = "Right"


class LinearSum(Lattice):
    """A tagged value in the linear-sum lattice ``A ⊕ B``.

    Use the constructors :meth:`left` and :meth:`right`:

    >>> lo = LinearSum.left(MaxInt(3))
    >>> hi = LinearSum.right(Bool(False), left_bottom=MaxInt(0))
    >>> lo.leq(hi)   # any Left is below any Right
    True
    """

    __slots__ = ("tag", "value", "left_bottom")

    def __init__(self, tag: str, value: Lattice, left_bottom: Lattice) -> None:
        if tag not in (LEFT, RIGHT):
            raise ValueError(f"tag must be {LEFT!r} or {RIGHT!r}, got {tag!r}")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "left_bottom", left_bottom)

    @classmethod
    def left(cls, value: Lattice) -> "LinearSum":
        """Wrap a value of the lower lattice ``A``."""
        return cls(LEFT, value, value.bottom_like())

    @classmethod
    def right(cls, value: Lattice, left_bottom: Lattice) -> "LinearSum":
        """Wrap a value of the upper lattice ``B``.

        ``left_bottom`` is ``⊥_A``, needed so the value can still report
        the bottom of the sum lattice.
        """
        return cls(RIGHT, value, left_bottom)

    # ------------------------------------------------------------------
    # Lattice protocol.
    # ------------------------------------------------------------------

    def join(self, other: "LinearSum") -> "LinearSum":
        if self.tag == other.tag:
            return LinearSum(self.tag, self.value.join(other.value), self.left_bottom)
        return self if self.tag == RIGHT else other

    def leq(self, other: "LinearSum") -> bool:
        if self.tag == other.tag:
            return self.value.leq(other.value)
        return self.tag == LEFT

    def bottom_like(self) -> "LinearSum":
        return LinearSum(LEFT, self.left_bottom, self.left_bottom)

    @property
    def is_bottom(self) -> bool:
        return self.tag == LEFT and self.value.is_bottom

    def decompose(self) -> Iterator["LinearSum"]:
        if self.tag == RIGHT and self.value.is_bottom:
            yield self
            return
        for irreducible in self.value.decompose():
            yield LinearSum(self.tag, irreducible, self.left_bottom)

    def delta(self, other: "LinearSum") -> "LinearSum":
        if self.tag == LEFT and other.tag == RIGHT:
            # Everything in self is below other.
            return self.bottom_like()
        if self.tag == RIGHT and other.tag == LEFT:
            # No Right irreducible is below a Left value, not even Right ⊥_B.
            return self
        inner = self.value.delta(other.value)
        if inner.is_bottom:
            return self.bottom_like()
        return LinearSum(self.tag, inner, self.left_bottom)

    def size_units(self) -> int:
        if self.tag == RIGHT and self.value.is_bottom:
            return 1
        return self.value.size_units()

    def size_bytes(self) -> int:
        if self.is_bottom:
            return 0
        return sizes.TAG_BYTES + self.value.size_bytes()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearSum)
            and self.tag == other.tag
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((LinearSum, self.tag, self.value))

    def __repr__(self) -> str:
        return f"LinearSum.{self.tag.lower()}({self.value!r})"

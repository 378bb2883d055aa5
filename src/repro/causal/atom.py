"""Opaque payloads as (degenerate) lattice values for dot-function stores.

Multi-value registers store arbitrary application values — tweet
bodies, JSON blobs — that have no lattice structure of their own.  In a
:class:`~repro.causal.stores.DotFun` each value lives under the unique
dot of the write event that produced it, and two replicas can only ever
associate *the same* value with a given dot.  :class:`Atom` leans on
that invariant: it is a flat one-point-per-value "lattice" whose join
is defined only between equal values (and bottom).

This is standard practice in CRDT implementations (Riak, Akka
Distributed Data treat register payloads as opaque blobs).  ``Atom`` is
deliberately *not* a lawful lattice over its whole carrier — joining
two distinct atoms raises — so it must only be used in positions where
the per-dot single-writer invariant holds, which every type in
:mod:`repro.causal` guarantees by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterator

from repro.lattice.base import Lattice

if TYPE_CHECKING:  # pragma: no cover
    from repro.sizes import SizeModel


class _BottomType:
    """Unique sentinel distinguishing "no value" from a ``None`` payload."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<atom-bottom>"


_BOTTOM = _BottomType()


class Atom(Lattice):
    """An opaque payload wrapped as a lattice value.

    >>> Atom("x").join(Atom("x"))
    Atom('x')
    >>> Atom().is_bottom
    True
    >>> Atom("x").join(Atom("y"))
    Traceback (most recent call last):
        ...
    ValueError: cannot join distinct atoms 'x' and 'y'
    """

    __slots__ = ("value",)

    def __init__(self, value: Hashable = _BOTTOM) -> None:
        object.__setattr__(self, "value", value)

    def join(self, other: "Atom") -> "Atom":
        if self.is_bottom:
            return other
        if other.is_bottom or self.value == other.value:
            return self
        raise ValueError(
            f"cannot join distinct atoms {self.value!r} and {other.value!r}"
        )

    def leq(self, other: "Atom") -> bool:
        return self.is_bottom or self.value == other.value

    def bottom_like(self) -> "Atom":
        return _ATOM_BOTTOM

    @property
    def is_bottom(self) -> bool:
        return self.value is _BOTTOM

    def decompose(self) -> Iterator["Atom"]:
        if not self.is_bottom:
            yield self

    def delta(self, other: "Atom") -> "Atom":
        return _ATOM_BOTTOM if self.leq(other) else self

    def size_units(self) -> int:
        return 0 if self.is_bottom else 1

    def size_bytes(self, model: "SizeModel") -> int:
        return 0 if self.is_bottom else model.sizeof(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Atom) and self.value == other.value

    def __hash__(self) -> int:
        return hash((Atom, self.value))

    def __repr__(self) -> str:
        return "Atom()" if self.is_bottom else f"Atom({self.value!r})"


_ATOM_BOTTOM = Atom()

"""Base protocol for join-semilattice values.

A state-based CRDT is a triple ``(L, ⊑, ⊔)`` where ``L`` is a
join-semilattice, ``⊑`` a partial order, and ``⊔`` a binary join that
computes the least upper bound of any two elements (paper, Section II).
The partial order never needs to be defined independently because it is
recoverable from the join::

    x ⊑ y  ⇔  x ⊔ y = y

Every lattice in this library is a *bounded* join-semilattice — it has a
bottom element ``⊥`` — and, with the lexicographic-product caveat spelled
out in Appendix B of the paper, is a distributive lattice satisfying the
descending chain condition.  Those two properties guarantee that every
state has a *unique irredundant join decomposition* (Proposition 1),
which is what makes the optimal deltas of Section III well defined.

Values are immutable to everyone but the one replica that built them:
every operation returns a new value, except ``MapLattice.join_owned``,
with which a delta-based replica joins a δ into a state it built and no
one else has read (``repro.sync.protocol.Synchronizer.state``).  A value
that has left its replica — read, buffered, sent — never changes.  This
makes them safe to alias from delta buffers, message payloads, and
replica states simultaneously, which the network simulator relies on,
and it lets the digest index pair a value's cached fingerprints with
its ``decompose()`` order by object identity.  Immutability is a property
of the type: :class:`Frozen`, the base of :class:`Lattice`, of
``repro.causal.DotStore`` and of ``repro.causal.CausalContext``,
refuses every attribute write and delete, so a subclass is frozen with
no code of its own.  Constructors fill their slots, and the few memos
(a cached hash, size or byte count) fill theirs, with
``object.__setattr__``, the one call that goes around it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, TypeVar

L = TypeVar("L", bound="Lattice")


class Frozen:
    """Base of every immutable value: attribute writes and deletes raise."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class Lattice(Frozen, ABC):
    """Abstract base class for immutable join-semilattice values.

    Subclasses must implement :meth:`join`, :meth:`bottom_like`,
    :meth:`is_bottom`, :meth:`decompose`, :meth:`size_units` and
    :meth:`size_bytes`, plus value-based ``__eq__`` / ``__hash__``.

    Two derived operations are provided for free and may be overridden
    with faster type-specific implementations:

    * :meth:`leq` — the partial order ``⊑`` derived from the join;
    * :meth:`delta` — the optimal delta ``∆(self, other)`` of Section III,
      derived from the join decomposition.

    :attr:`fixed_size` is a class-level promise about size accounting:
    ``True`` means every non-bottom value of the class has the same
    :meth:`size_units` and the same :meth:`size_bytes` (``MaxInt``,
    ``Bool``).  Rebinding a map key from
    one such value to another then cannot change the map's size, which
    ``MapLattice``'s size lineage relies on.
    ``tests/test_lattice_shortcuts.py`` checks every class declaring it.
    """

    __slots__ = ()

    #: Every non-bottom value has one size (see the class docstring).
    fixed_size = False

    # ------------------------------------------------------------------
    # Core lattice structure.
    # ------------------------------------------------------------------

    @abstractmethod
    def join(self: L, other: L) -> L:
        """Return the least upper bound ``self ⊔ other``."""

    @abstractmethod
    def bottom_like(self: L) -> L:
        """Return the bottom element ``⊥`` of this value's lattice.

        The bottom is requested from an instance rather than from the
        class because parameterized lattices (pairs, lexicographic pairs,
        linear sums) need component information that only an instance
        carries.
        """

    @property
    @abstractmethod
    def is_bottom(self) -> bool:
        """True if this value is the bottom element ``⊥``."""

    def leq(self: L, other: L) -> bool:
        """The partial order ``self ⊑ other``, derived as ``x ⊔ y = y``.

        Subclasses override this with a direct comparison when one is
        cheaper than materializing the join.
        """
        return self.join(other) == other

    def lt(self: L, other: L) -> bool:
        """Strict order ``self ⊏ other``."""
        return self != other and self.leq(other)

    # ------------------------------------------------------------------
    # Join decompositions and optimal deltas (paper, Section III).
    # ------------------------------------------------------------------

    @abstractmethod
    def decompose(self: L) -> Iterator[L]:
        """Yield the unique irredundant join decomposition ``⇓self``.

        Every yielded value is join-irreducible, the join of all yielded
        values equals ``self``, and no yielded value is below the join of
        the others.  Bottom decomposes into the empty iterator (it is the
        join over the empty set and is never join-irreducible).

        ``⇓self`` is a set, but the *order* it is yielded in is part of
        the contract: one value object yields its irreducibles in the
        same order every time it is asked (values are immutable and no
        implementation consults anything but the value).  Two equal but
        distinct objects may differ.  ``repro.sync.digest.
        IncrementalDigest`` pairs a value's irreducibles with the
        fingerprints it cached from an earlier pass by position.

        The decomposition rules per lattice construct follow Appendix C
        of the paper.
        """

    def delta(self: L, other: L) -> L:
        """Return the optimal delta ``∆(self, other)`` (Definition in §III-B).

        The result is the join of the join-irreducibles of ``self`` that
        are not already below ``other``::

            ∆(a, b) = ⊔ { y ∈ ⇓a | y ⋢ b }

        It satisfies ``∆(a, b) ⊔ b = a ⊔ b`` and is the least value doing
        so: any ``c`` with ``c ⊔ b = a ⊔ b`` has ``∆(a, b) ⊑ c``.

        Subclasses override this with structurally recursive versions
        that avoid materializing singleton irreducibles.
        """
        acc = self.bottom_like()
        for irreducible in self.decompose():
            if not irreducible.leq(other):
                acc = acc.join(irreducible)
        return acc

    # ------------------------------------------------------------------
    # Size accounting used by the evaluation harness.
    # ------------------------------------------------------------------

    @abstractmethod
    def size_units(self) -> int:
        """Size in the paper's transmission metric (Table I).

        The unit count equals the number of join-irreducibles in the
        decomposition: map entries for ``GCounter``/``GMap``, set elements
        for ``GSet``.  Efficient overrides avoid walking the
        decomposition.
        """

    @abstractmethod
    def size_bytes(self) -> int:
        """Approximate serialized payload size, in the paper's
        per-atom byte sizes (:mod:`repro.sizes`).

        Used by the Retwis evaluation (Section V-C), where tweet
        identifiers and bodies have realistic byte sizes.
        """

    # ------------------------------------------------------------------
    # Convenience.
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - overridden by subclasses
        return f"{type(self).__name__}()"


def join_all(values: Iterable[L], bottom: L) -> L:
    """Join an iterable of lattice values, starting from ``bottom``.

    ``join_all([], bottom)`` is ``bottom``, matching the convention that
    the join over the empty set is ``⊥``.
    """
    acc = bottom
    for value in values:
        acc = acc.join(value)
    return acc

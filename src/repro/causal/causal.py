"""The causal lattice: (dot store, causal context) pairs as CRDT states.

:class:`Causal` packages a dot store with its causal context and
implements the full :class:`~repro.lattice.base.Lattice` protocol, so
every synchronizer in :mod:`repro.sync` — state-based, all four
delta-based variants, Scuttlebutt, op-based — replicates causal CRDTs
unchanged.  This realizes the paper's Appendix B claim that join
decompositions extend beyond the grow-only examples to the CRDTs used
in practice.

Per dot, the reachable states form a chain::

    ⊥  <  live (payload climbs the value lattice)  <  seen-and-removed

so the causal lattice is a product of lifted chains: distributive and
DCC, hence (Proposition 1) every state has a unique irredundant join
decomposition.  Concretely, ``⇓(s, c)`` consists of

* one **live fragment** ``(f, {d})`` per irreducible payload ``f`` of
  each live dot ``d`` — what an add/write contributes, and
* one **tombstone** ``(⊥, {d})`` per dot in ``c`` absent from ``s`` —
  what a remove contributes.

The optimal delta follows Section III-B but deserves its subtlety
spelled out: a tombstone ``(⊥, {d})`` is redundant against ``b`` only
when ``b`` has seen **and removed** ``d``.  If ``b`` still holds ``d``
live, the tombstone strictly inflates ``b`` (it kills the dot) and must
be part of ``∆(a, b)`` — dropping it would resurrect removed elements
during anti-entropy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterator, Set

from repro.causal.dots import CausalContext, Dot, EMPTY_CONTEXT
from repro.causal.stores import DotFun, DotMap, DotSet, DotStore
from repro.lattice.base import Lattice

if TYPE_CHECKING:  # pragma: no cover
    from repro.sizes import SizeModel


class Causal(Lattice):
    """An immutable causal CRDT state ``(store, context)``.

    >>> write = Causal(DotSet([Dot("A", 1)]), CausalContext.from_dots([Dot("A", 1)]))
    >>> erase = Causal(DotSet(), write.context)      # saw the dot, dropped it
    >>> write.join(erase).store.is_empty             # the removal wins
    True
    """

    __slots__ = ("store", "context")

    def __init__(self, store: DotStore, context: CausalContext) -> None:
        object.__setattr__(self, "store", store)
        object.__setattr__(self, "context", context)

    # ------------------------------------------------------------------
    # Bottom constructors, one per store shape.
    # ------------------------------------------------------------------

    @staticmethod
    def set_bottom() -> "Causal":
        """Bottom over a :class:`DotSet` store (flags)."""
        return _SET_BOTTOM

    @staticmethod
    def fun_bottom() -> "Causal":
        """Bottom over a :class:`DotFun` store (registers, counters)."""
        return _FUN_BOTTOM

    @staticmethod
    def map_bottom() -> "Causal":
        """Bottom over a :class:`DotMap` store (OR-sets, OR-maps)."""
        return _MAP_BOTTOM

    # ------------------------------------------------------------------
    # Lattice protocol.
    # ------------------------------------------------------------------

    def join(self, other: "Causal") -> "Causal":
        store = self.store.join(other.store, self.context, other.context)
        return Causal(store, self.context.union(other.context))

    def leq(self, other: "Causal") -> bool:
        # Context containment plus the live-side conditions; see the
        # stores' ``leq_live`` for the per-shape derivation.
        return self.context.leq(other.context) and self.store.leq_live(
            other.store, self.context
        )

    def bottom_like(self) -> "Causal":
        if self.store.is_empty and self.context.is_empty:
            return self
        return Causal(self.store.bottom_like(), EMPTY_CONTEXT)

    @property
    def is_bottom(self) -> bool:
        return self.store.is_empty and self.context.is_empty

    def decompose(self) -> Iterator["Causal"]:
        empty_store = self.store.bottom_like()
        live: Set[Dot] = self.store.dots()
        for fragment, dot in self.store.irreducibles():
            yield Causal(fragment, CausalContext(None, (dot,)))
        for dot in self.context.dots():
            if dot not in live:
                yield Causal(empty_store, CausalContext(None, (dot,)))

    def delta(self, other: "Causal") -> "Causal":
        """Optimal ``∆(self, other)`` without materializing ``⇓self``.

        Live fragments come from the store's ``delta_live``; tombstones
        are the removed dots of ``self`` that ``other`` either never saw
        or still holds live (see the module docstring).
        """
        live = self.store.delta_live(other.store, other.context)
        own_live = self.store.dots()
        carried: Set[Dot] = set(live.dots())
        for dot in self.context.subtract(other.context):
            if dot not in own_live:
                carried.add(dot)
        for dot in other.store.dots():
            if dot not in own_live and self.context.contains(dot):
                carried.add(dot)
        if live.is_empty and not carried:
            return self.bottom_like()
        return Causal(live, CausalContext.from_dots(carried))

    # ------------------------------------------------------------------
    # Size accounting.
    # ------------------------------------------------------------------

    def size_units(self) -> int:
        """Store entries plus context entries (both cross the wire)."""
        return self.store.size_units() + self.context.size_units()

    def size_bytes(self, model: "SizeModel") -> int:
        return self.store.size_bytes(model) + self.context.size_bytes(model)

    # ------------------------------------------------------------------
    # Diagnostics.
    # ------------------------------------------------------------------

    def check_invariant(self) -> None:
        """Assert the store's dots are all covered by the context.

        Every state reachable through mutators and joins maintains
        this; tests call it after random operation interleavings.
        """
        for dot in self.store.dots():
            if not self.context.contains(dot):
                raise AssertionError(f"store dot {dot} missing from context")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Causal)
            and self.store == other.store
            and self.context == other.context
        )

    def __hash__(self) -> int:
        return hash((Causal, self.store, self.context))

    def __repr__(self) -> str:
        return f"Causal({self.store!r}, {self.context!r})"


_SET_BOTTOM = Causal(DotSet(), EMPTY_CONTEXT)
_FUN_BOTTOM = Causal(DotFun(), EMPTY_CONTEXT)
_MAP_BOTTOM = Causal(DotMap(), EMPTY_CONTEXT)


# ----------------------------------------------------------------------
# δ-mutators shared by the causal types (``fn(replica, state, *args)``).
# ----------------------------------------------------------------------


def cover_observed(replica: Hashable, state: Causal) -> Causal:
    """δ-mutator: cover every observed dot, shipping no payload.

    Clearing a set or map, resetting a counter, and lowering a flag
    are all this one δ (``⊥`` when nothing is live).
    """
    dots = state.store.dots()
    if not dots:
        return state.bottom_like()
    return Causal(state.store.bottom_like(), CausalContext.from_dots(dots))


def cover_key(replica: Hashable, state: Causal, key: Hashable) -> Causal:
    """δ-mutator: cover the observed dots under one key of a ``DotMap``.

    Removing an absent key is a no-op (``⊥``), mirroring the paper's
    optimal GSet ``addδ`` that returns bottom for a duplicate add.
    """
    sub = state.store.get(key)
    if sub is None:
        return state.bottom_like()
    return Causal(DotMap(), CausalContext.from_dots(sub.dots()))

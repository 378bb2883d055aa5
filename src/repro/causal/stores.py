"""Dot stores: the payload half of a causal CRDT state.

A causal CRDT state is a pair (dot store, causal context); the join of
two states resolves, dot by dot, whether an event is *unseen* (keep the
payload), *seen and kept* (keep it), or *seen and removed* (drop it —
the dot is in the other context but not its store).  Following the
delta-CRDT catalog (Almeida et al., JPDC 2018) there are three store
shapes, closed under nesting:

* :class:`DotSet` — a set of bare dots (flags, per-element presence);
* :class:`DotFun` — a map from dots to values of some lattice
  (multi-value registers, causal counters);
* :class:`DotMap` — a map from keys to nested dot stores (observed-
  remove sets and maps).

Store joins take *both* causal contexts as parameters because the
dead-or-unseen question can only be answered against the contexts; the
:class:`~repro.causal.causal.Causal` wrapper owns the contexts and is
the actual :class:`~repro.lattice.base.Lattice`.

Per-dot, the reachable states form a chain — unseen, then live
(possibly climbing the value lattice), then removed — so the composite
causal lattice is a product of chains lifted over the value lattices:
distributive and DCC, which by Proposition 1 of the paper guarantees
unique irredundant decompositions.  :meth:`DotStore.irreducibles`
yields exactly the live per-dot fragments those decompositions are made
of.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Mapping, Tuple

from repro import sizes
from repro.causal.dots import CausalContext, Dot
from repro.lattice.base import Frozen, Lattice


class DotStore(Frozen, ABC):
    """Common interface of the three dot-store shapes.

    Stores are immutable; every operation returns a new store.  They are
    *not* lattices on their own — ``join`` needs the causal contexts —
    which is why they do not subclass :class:`Lattice`.
    """

    __slots__ = ()

    @abstractmethod
    def dots(self) -> FrozenSet[Dot]:
        """Every dot held live in the store (recursively)."""

    @property
    @abstractmethod
    def is_empty(self) -> bool:
        """True when the store holds no dots."""

    @abstractmethod
    def bottom_like(self) -> "DotStore":
        """The empty store of the same shape."""

    @abstractmethod
    def join(
        self, other: "DotStore", own_cc: CausalContext, other_cc: CausalContext
    ) -> "DotStore":
        """The causal join: keep common and unseen dots, drop removed ones."""

    @abstractmethod
    def irreducibles(self) -> Iterator[Tuple["DotStore", Dot]]:
        """The live join-irreducible fragments, each carrying one dot.

        Joining every yielded fragment (under contexts equal to their
        own dots) rebuilds the store; the Causal wrapper appends the
        context-only tombstone fragments to complete ``⇓x``.
        """

    @abstractmethod
    def delta_live(self, other: "DotStore", other_cc: CausalContext) -> "DotStore":
        """The live part of ``∆``: fragments of ``self`` not below ``other``.

        Keeps dots the other context has never seen, and — for value-
        carrying stores — the value increments on dots live in both.
        Dots the other side has seen-and-removed are dropped (the
        removal is above any payload for that dot).
        """

    @abstractmethod
    def leq_live(self, other: "DotStore", own_cc: CausalContext) -> bool:
        """The live half of the causal partial order.

        Given that ``own_cc ⊆ other_cc`` (checked by the caller), the
        join equals ``other`` iff no dot that ``self`` has observed
        (``own_cc``) but removed is still live in ``other``, and common
        live dots carry values below the other's.
        """

    @abstractmethod
    def size_units(self) -> int:
        """Store size in the paper's entry metric."""

    @abstractmethod
    def size_bytes(self) -> int:
        """Approximate serialized size of the store."""


class DotSet(DotStore):
    """A set of bare dots — the store of flags and presence markers.

    >>> a, b = DotSet([Dot("A", 1)]), DotSet([Dot("B", 1)])
    >>> ca = CausalContext.from_dots([Dot("A", 1)])
    >>> cb = CausalContext.from_dots([Dot("B", 1)])
    >>> sorted(a.join(b, ca, cb).dots()) == [Dot("A", 1), Dot("B", 1)]
    True
    """

    __slots__ = ("_dots",)

    def __init__(self, dots: Iterable[Dot] = ()) -> None:
        object.__setattr__(self, "_dots", frozenset(dots))

    def dots(self) -> FrozenSet[Dot]:
        return self._dots

    @property
    def is_empty(self) -> bool:
        return not self._dots

    def bottom_like(self) -> "DotSet":
        return _EMPTY_DOTSET

    def join(
        self, other: "DotSet", own_cc: CausalContext, other_cc: CausalContext
    ) -> "DotSet":
        common = self._dots & other._dots
        mine = {d for d in self._dots - other._dots if not other_cc.contains(d)}
        theirs = {d for d in other._dots - self._dots if not own_cc.contains(d)}
        return DotSet(common | mine | theirs)

    def irreducibles(self) -> Iterator[Tuple["DotSet", Dot]]:
        for dot in self._dots:
            fragment = DotSet.__new__(DotSet)
            object.__setattr__(fragment, "_dots", frozenset((dot,)))
            yield fragment, dot

    def delta_live(self, other: "DotSet", other_cc: CausalContext) -> "DotSet":
        return DotSet(d for d in self._dots if not other_cc.contains(d))

    def leq_live(self, other: "DotStore", own_cc: CausalContext) -> bool:
        return all(
            dot in self._dots for dot in other.dots() if own_cc.contains(dot)
        )

    def size_units(self) -> int:
        return len(self._dots)

    def size_bytes(self) -> int:
        return len(self._dots) * sizes.VECTOR_ENTRY_BYTES

    def __contains__(self, dot: Dot) -> bool:
        return dot in self._dots

    def __len__(self) -> int:
        return len(self._dots)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DotSet) and self._dots == other._dots

    def __hash__(self) -> int:
        return hash((DotSet, self._dots))

    def __repr__(self) -> str:
        if len(self._dots) == 1:
            # One dot (every irreducible): nothing to sort.
            ((replica, counter),) = self._dots
            return f"DotSet({{{replica!r}.{counter}}})"
        inner = ", ".join(
            f"{d.replica!r}.{d.counter}"
            for d in sorted(self._dots, key=lambda d: (repr(d.replica), d.counter))
        )
        return f"DotSet({{{inner}}})"


class DotFun(DotStore):
    """A map from dots to lattice values — registers and causal counters.

    The entry for a dot is the payload written by that event; joins
    merge common entries with the value lattice's join (well-defined
    because each event writes through one replica, and concurrent
    entries live under distinct dots).  Bottom-valued entries are
    rejected: a dot mapping to ``⊥`` would be indistinguishable from a
    removed dot after a round-trip through the context.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[Dot, Lattice] | None = None) -> None:
        items: Dict[Dot, Lattice] = dict(entries or {})
        for dot, value in items.items():
            if value.is_bottom:
                raise ValueError(f"DotFun entry {dot} maps to bottom")
        object.__setattr__(self, "entries", items)

    def dots(self) -> FrozenSet[Dot]:
        return frozenset(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def bottom_like(self) -> "DotFun":
        return _EMPTY_DOTFUN

    def join(
        self, other: "DotFun", own_cc: CausalContext, other_cc: CausalContext
    ) -> "DotFun":
        merged: Dict[Dot, Lattice] = {}
        for dot, value in self.entries.items():
            theirs = other.entries.get(dot)
            if theirs is not None:
                merged[dot] = value.join(theirs)
            elif not other_cc.contains(dot):
                merged[dot] = value
        for dot, value in other.entries.items():
            if dot not in self.entries and not own_cc.contains(dot):
                merged[dot] = value
        return DotFun(merged)

    def irreducibles(self) -> Iterator[Tuple["DotFun", Dot]]:
        for dot, value in self.entries.items():
            for part in value.decompose():
                yield DotFun({dot: part}), dot

    def delta_live(self, other: "DotFun", other_cc: CausalContext) -> "DotFun":
        out: Dict[Dot, Lattice] = {}
        for dot, value in self.entries.items():
            if not other_cc.contains(dot):
                out[dot] = value
                continue
            theirs = other.entries.get(dot)
            if theirs is None:
                continue  # seen and removed there: removal covers any payload
            increment = value.delta(theirs)
            if not increment.is_bottom:
                out[dot] = increment
        return DotFun(out)

    def leq_live(self, other: "DotStore", own_cc: CausalContext) -> bool:
        assert isinstance(other, DotFun)
        for dot, value in other.entries.items():
            if not own_cc.contains(dot):
                continue
            mine = self.entries.get(dot)
            if mine is None or not mine.leq(value):
                return False
        return True

    def size_units(self) -> int:
        return sum(max(1, value.size_units()) for value in self.entries.values())

    def size_bytes(self) -> int:
        return sum(
            sizes.VECTOR_ENTRY_BYTES + value.size_bytes()
            for value in self.entries.values()
        )

    def get(self, dot: Dot) -> Lattice | None:
        return self.entries.get(dot)

    def values(self) -> Iterator[Lattice]:
        return iter(self.entries.values())

    def items(self) -> Iterator[Tuple[Dot, Lattice]]:
        return iter(self.entries.items())

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DotFun) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((DotFun, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        if not self.entries:
            return "DotFun({})"
        if len(self.entries) == 1:
            # One entry (every irreducible): nothing to sort.
            (((replica, counter), value),) = self.entries.items()
            return f"DotFun({{{replica!r}.{counter}: {value!r}}})"
        inner = ", ".join(
            f"{d.replica!r}.{d.counter}: {v!r}"
            for d, v in sorted(self.entries.items(), key=lambda kv: (repr(kv[0].replica), kv[0].counter))
        )
        return f"DotFun({{{inner}}})"


class DotMap(DotStore):
    """A map from keys to nested dot stores — OR-sets and OR-maps.

    Keys whose nested store is empty are not represented (the causal
    context remembers their dots), so a key is "in the map" exactly
    when it holds at least one live dot — the add-wins read.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[Hashable, DotStore] | None = None) -> None:
        cleaned: Dict[Hashable, DotStore] = {
            key: sub for key, sub in (entries or {}).items() if not sub.is_empty
        }
        object.__setattr__(self, "entries", cleaned)

    def dots(self) -> FrozenSet[Dot]:
        out: set[Dot] = set()
        for sub in self.entries.values():
            out |= sub.dots()
        return frozenset(out)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def bottom_like(self) -> "DotMap":
        return _EMPTY_DOTMAP

    def join(
        self, other: "DotMap", own_cc: CausalContext, other_cc: CausalContext
    ) -> "DotMap":
        merged: Dict[Hashable, DotStore] = {}
        for key, sub in self.entries.items():
            theirs = other.entries.get(key)
            joined = sub.join(
                theirs if theirs is not None else sub.bottom_like(), own_cc, other_cc
            )
            if not joined.is_empty:
                merged[key] = joined
        for key, sub in other.entries.items():
            if key in self.entries:
                continue
            joined = sub.bottom_like().join(sub, own_cc, other_cc)
            if not joined.is_empty:
                merged[key] = joined
        return DotMap(merged)

    def irreducibles(self) -> Iterator[Tuple["DotMap", Dot]]:
        for key, sub in self.entries.items():
            for fragment, dot in sub.irreducibles():
                # A fragment holds its one dot: nothing to clean.
                wrapped = DotMap.__new__(DotMap)
                object.__setattr__(wrapped, "entries", {key: fragment})
                yield wrapped, dot

    def delta_live(self, other: "DotMap", other_cc: CausalContext) -> "DotMap":
        out: Dict[Hashable, DotStore] = {}
        for key, sub in self.entries.items():
            theirs = other.entries.get(key)
            fragment = sub.delta_live(
                theirs if theirs is not None else sub.bottom_like(), other_cc
            )
            if not fragment.is_empty:
                out[key] = fragment
        return DotMap(out)

    def leq_live(self, other: "DotStore", own_cc: CausalContext) -> bool:
        assert isinstance(other, DotMap)
        for key, sub in other.entries.items():
            mine = self.entries.get(key)
            if mine is None:
                mine = sub.bottom_like()
            if not mine.leq_live(sub, own_cc):
                return False
        return True

    def size_units(self) -> int:
        return sum(sub.size_units() for sub in self.entries.values())

    def size_bytes(self) -> int:
        return sum(
            sizes.sizeof(key) + sub.size_bytes()
            for key, sub in self.entries.items()
        )

    def get(self, key: Hashable) -> DotStore | None:
        return self.entries.get(key)

    def keys(self) -> Iterator[Hashable]:
        return iter(self.entries.keys())

    def items(self) -> Iterator[Tuple[Hashable, DotStore]]:
        return iter(self.entries.items())

    def __contains__(self, key: Hashable) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DotMap) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((DotMap, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        if not self.entries:
            return "DotMap({})"
        if len(self.entries) == 1:
            # One entry (every irreducible): nothing to sort.
            ((key, sub),) = self.entries.items()
            return f"DotMap({{{key!r}: {sub!r}}})"
        inner = ", ".join(
            f"{key!r}: {sub!r}"
            for key, sub in sorted(self.entries.items(), key=lambda kv: repr(kv[0]))
        )
        return f"DotMap({{{inner}}})"


_EMPTY_DOTSET = DotSet()
_EMPTY_DOTFUN = DotFun()
_EMPTY_DOTMAP = DotMap()

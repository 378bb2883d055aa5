"""Typed access to a heterogeneous CRDT keyspace.

A key-value store holds many keys, each bound to one CRDT type; clients
speak in typed operations (``increment``, ``add``, ``write``) while the
synchronization layer sees only lattice deltas.  :class:`TypeSpec`
bridges the two.  It is built from a type's declaration in
:mod:`repro.crdt` / :mod:`repro.causal` — its ``bottom``, its declared
δ-mutators and the query a read answers with — and turns a named
operation into a direct call of that δ-mutator on the key's current
lattice value: every write funnels through the paper's δ-mutator
discipline (Section III-B), no client object is built, and any
synchronizer in :mod:`repro.sync` can carry the result.

A key's prefix decides which type it holds (:func:`spec_for` over the
one read-only table :data:`PREFIXES`).  The binding is a pure function
of the key, so every replica resolves it identically without
coordination: ``cnt:balance`` is a PNCounter, ``aws:cart`` an add-wins
set, and the Retwis prefixes (``flw:``/``wal:``/``tln:``) map onto the
store's set/map types so the paper's application workload runs
unchanged.  Serving another declared type — a
:class:`~repro.crdt.base.Crdt` subclass with a ``bottom``,
``@delta_mutator`` functions ``(replica, state, *args) → δ`` and an
``@query`` function ``state → value`` — means adding a prefix and its
:class:`TypeSpec` to that table; its bottom must encode, because the
write-ahead log encodes every δ at the next group commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Hashable, Mapping, Optional, Type

from repro.causal import AWSet, CausalMVRegister, CCounter, EWFlag, RWSet
from repro.crdt import (
    Crdt,
    GCounter,
    GMap,
    GSet,
    LWWRegister,
    PNCounter,
    TwoPSet,
)
from repro.lattice.base import Lattice


class KVTypeError(TypeError):
    """Unknown type, unknown operation, or unsupported removal."""


@dataclass(frozen=True)
class TypeSpec:
    """One storable CRDT type, as its declaration defines it.

    Attributes:
        name: The type's name in errors (``"gcounter"``, ``"awset"``, …).
        crdt: The declaring :class:`~repro.crdt.base.Crdt` subclass;
            its ``bottom`` starts every key and its declared
            δ-mutators (``crdt.mutators``) are the write operations.
        read: The declared query answering a read (``state → value``).
        remove: The declared δ-mutator implementing key removal
            (``AWSet.clear`` for observed-remove types), or ``None``
            for grow-only types that cannot forget.
    """

    name: str
    crdt: Type[Crdt]
    read: Callable[[Lattice], Any]
    remove: Optional[Callable[[Hashable, Lattice], Lattice]] = None

    def bottom(self) -> Lattice:
        """The type's bottom lattice value (every key starts here)."""
        return self.crdt.bottom()

    def apply(self, replica: Hashable, state: Lattice, op: str, *args) -> Lattice:
        """Run δ-mutator ``op`` against ``state`` and return the optimal δ.

        Lattice values are immutable, so the caller's ``state`` is never
        modified — only the delta travels back, and joining it is the
        caller's job.
        """
        mutator = self.crdt.mutators.get(op)
        if mutator is None:
            raise KVTypeError(
                f"type {self.name!r} has no operation {op!r} "
                f"(available: {sorted(self.crdt.mutators)})"
            )
        return mutator(replica, state, *args)

    def remove_delta(self, replica: Hashable, state: Lattice) -> Lattice:
        """The δ removing the whole value, for types that support it."""
        if self.remove is None:
            raise KVTypeError(f"type {self.name!r} is grow-only: keys cannot be removed")
        return self.remove(replica, state)


_GSET = TypeSpec("gset", GSet, GSet.value)
_GMAP = TypeSpec("gmap", GMap, GMap.bindings)

#: The one key-typing table: a key ``"<prefix>:<rest>"`` holds the type
#: its prefix maps to.  Typing is a pure function of the key, so every
#: replica — in this process or another — resolves it identically.
PREFIXES: Mapping[str, TypeSpec] = MappingProxyType({
    "gct": TypeSpec("gcounter", GCounter, GCounter.value),
    "cnt": TypeSpec("pncounter", PNCounter, PNCounter.value),
    "set": _GSET,
    "2ps": TypeSpec("twopset", TwoPSet, TwoPSet.value),
    "map": _GMAP,
    "aws": TypeSpec("awset", AWSet, AWSet.value, AWSet.clear),
    "rws": TypeSpec("rwset", RWSet, RWSet.value),
    "ccn": TypeSpec("ccounter", CCounter, CCounter.value, CCounter.reset),
    "reg": TypeSpec("lwwregister", LWWRegister, LWWRegister.value),
    "mvr": TypeSpec("mvregister", CausalMVRegister, CausalMVRegister.values),
    "flg": TypeSpec("ewflag", EWFlag, EWFlag.enabled),
    # The Retwis application keys (repro.workloads.retwis).
    "flw": _GSET,
    "wal": _GMAP,
    "tln": _GMAP,
})


def spec_for(key: Hashable) -> TypeSpec:
    """The :class:`TypeSpec` governing ``key``, by its prefix."""
    if isinstance(key, str):
        prefix, separator, _ = key.partition(":")
        if separator and prefix in PREFIXES:
            return PREFIXES[prefix]
    raise KVTypeError(f"cannot type key {key!r}: no known prefix")

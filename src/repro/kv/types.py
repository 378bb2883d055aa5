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

A key's prefix decides which type it holds (:func:`type_of` over the
one table :data:`PREFIXES`).  The binding is a pure function of the key,
so every replica resolves it identically without coordination:
``cnt:balance`` is a PNCounter, ``aws:cart`` an add-wins set, and the
Retwis prefixes (``flw:``/``wal:``/``tln:``) map onto the store's
set/map types so the paper's application workload runs unchanged.
Custom types register through :func:`register_type`, which takes a
:class:`TypeSpec` naming a declared type: a :class:`~repro.crdt.base.Crdt`
subclass with a ``bottom``, ``@delta_mutator`` functions
``(replica, state, *args) → δ`` and an ``@query`` function
``state → value``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Dict, Hashable, Mapping, Optional, Type

from repro.causal import AWSet, CausalMVRegister, CCounter, EWFlag, RWSet
from repro.codec import UnsupportedType, encode
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
        name: Registry identifier (``"gcounter"``, ``"awset"``, …).
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


#: The built-in storable types.
TYPE_REGISTRY: Dict[str, TypeSpec] = {}


def register_type(spec: TypeSpec) -> TypeSpec:
    """Add a declared type to the registry (application-defined CRDTs
    plug in here).

    The type's bottom must encode: the write-ahead log encodes a write's
    δ only at the next group commit, so a type without a wire format is
    refused here rather than at the first tick after its first write.
    """
    if spec.name in TYPE_REGISTRY:
        raise KVTypeError(f"type {spec.name!r} is already registered")
    try:
        encode(spec.bottom())
    except UnsupportedType as exc:
        raise KVTypeError(f"type {spec.name!r} has no wire format: {exc}") from exc
    TYPE_REGISTRY[spec.name] = spec
    return spec


def type_spec(name: str) -> TypeSpec:
    """Look up a registered type."""
    try:
        return TYPE_REGISTRY[name]
    except KeyError:
        raise KVTypeError(
            f"unknown CRDT type {name!r} (registered: {sorted(TYPE_REGISTRY)})"
        ) from None


for _spec in (
    TypeSpec("gcounter", GCounter, GCounter.value),
    TypeSpec("pncounter", PNCounter, PNCounter.value),
    TypeSpec("gset", GSet, GSet.value),
    TypeSpec("twopset", TwoPSet, TwoPSet.value),
    TypeSpec("gmap", GMap, GMap.bindings),
    TypeSpec("awset", AWSet, AWSet.value, AWSet.clear),
    TypeSpec("rwset", RWSet, RWSet.value),
    TypeSpec("ccounter", CCounter, CCounter.value, CCounter.reset),
    TypeSpec("lwwregister", LWWRegister, LWWRegister.value),
    TypeSpec("mvregister", CausalMVRegister, CausalMVRegister.values),
    TypeSpec("ewflag", EWFlag, EWFlag.enabled),
):
    register_type(_spec)


#: The one key-typing table: a key ``"<prefix>:<rest>"`` holds the type
#: named by its prefix.  Typing is a pure function of the key, so every
#: replica — in this process or another — resolves it identically.
PREFIXES: Mapping[str, str] = MappingProxyType({
    "gct": "gcounter",
    "cnt": "pncounter",
    "set": "gset",
    "2ps": "twopset",
    "map": "gmap",
    "aws": "awset",
    "rws": "rwset",
    "ccn": "ccounter",
    "reg": "lwwregister",
    "mvr": "mvregister",
    "flg": "ewflag",
    # The Retwis application keys (repro.workloads.retwis).
    "flw": "gset",
    "wal": "gmap",
    "tln": "gmap",
})


def type_of(key: Hashable) -> str:
    """The type name ``key`` resolves to through :data:`PREFIXES`."""
    if isinstance(key, str):
        prefix, separator, _ = key.partition(":")
        if separator and prefix in PREFIXES:
            return PREFIXES[prefix]
    raise KVTypeError(f"cannot type key {key!r}: no known prefix")


def spec_for(key: Hashable) -> TypeSpec:
    """The :class:`TypeSpec` governing ``key``."""
    return type_spec(type_of(key))

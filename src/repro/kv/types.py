"""Typed access to a heterogeneous CRDT keyspace.

A key-value store holds many keys, each bound to one CRDT type; clients
speak in typed operations (``increment``, ``add``, ``write``) while the
synchronization layer sees only lattice deltas.  :class:`TypeSpec`
bridges the two: it wraps one of the library's CRDT classes
(:mod:`repro.crdt` / :mod:`repro.causal`) and turns a named mutator
invocation into the optimal δ of that mutation against the key's
current lattice value — every write funnels through the paper's
δ-mutator discipline (Section III-B), so any synchronizer in
:mod:`repro.sync` can carry it.

A :class:`Schema` decides which type a key holds.  The binding must be
a pure function of the key (every replica resolves it identically
without coordination), so the default convention types keys by prefix:
``cnt:balance`` is a PNCounter, ``aws:cart`` an add-wins set, and the
Retwis prefixes (``flw:``/``wal:``/``tln:``) map onto the store's
set/map types so the paper's application workload runs unchanged.
Custom types register through :func:`register_type`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, FrozenSet, Hashable, Mapping, Optional

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


@lru_cache(maxsize=None)
def _delta_only(client: type) -> type:
    """``client`` with the join cut out of its mutator funnel.

    Every mutator ends by handing its δ to :meth:`Crdt.apply_delta`,
    which joins it into the client's own state.  The clients
    :meth:`TypeSpec.apply` builds are thrown away as soon as the δ is
    out, and the shard joins that same δ right after — so for them, and
    only for them, the funnel returns the δ unjoined.  One subclass per
    client class, built on first use.
    """
    return type(
        client.__name__,
        (client,),
        {"__slots__": (), "apply_delta": lambda self, delta: delta},
    )


@dataclass(frozen=True)
class TypeSpec:
    """One storable CRDT type: its client class and permitted mutators.

    Attributes:
        name: Registry identifier (``"gcounter"``, ``"awset"``, …).
        client: The :class:`~repro.crdt.base.Crdt` subclass wrapped for
            each call; its constructor must accept ``(replica, state)``.
        mutators: Method names clients may invoke as write operations.
            Each must compute its δ from the state it was constructed
            with and pass it to ``apply_delta`` as its last step.
        reader: Maps a client holding the current state to the
            query-side value (:meth:`read`).
        remove_op: Mutator implementing key removal (``"clear"`` for
            observed-remove types), or ``None`` for grow-only types
            that cannot forget.
    """

    name: str
    client: type
    mutators: FrozenSet[str]
    reader: Callable[[Crdt], Any]
    remove_op: Optional[str] = None

    def bottom(self) -> Lattice:
        """The type's bottom lattice value (every key starts here)."""
        return self.client("⊥").state

    def apply(self, replica: Hashable, state: Lattice, op: str, *args) -> Lattice:
        """Run mutator ``op`` against ``state`` and return the optimal δ.

        An ephemeral client is constructed per call; lattice values are
        immutable, so the caller's ``state`` is never modified — only
        the delta travels back, and joining it is the caller's job.
        """
        if op not in self.mutators:
            raise KVTypeError(
                f"type {self.name!r} has no operation {op!r} "
                f"(available: {sorted(self.mutators)})"
            )
        return getattr(_delta_only(self.client)(replica, state), op)(*args)

    def read(self, state: Lattice) -> Any:
        """The query-side value of ``state``."""
        return self.reader(self.client("⊥", state))

    def remove_delta(self, replica: Hashable, state: Lattice) -> Lattice:
        """The δ removing the whole value, for types that support it."""
        if self.remove_op is None:
            raise KVTypeError(f"type {self.name!r} is grow-only: keys cannot be removed")
        return getattr(_delta_only(self.client)(replica, state), self.remove_op)()


#: The built-in storable types.
TYPE_REGISTRY: Dict[str, TypeSpec] = {}


def register_type(spec: TypeSpec) -> TypeSpec:
    """Add a type to the registry (application-defined CRDTs plug in here).

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


def _gmap_reader(client: GMap) -> Dict[Hashable, Lattice]:
    return {key: value for key, value in client.state.items()}


for _spec in (
    TypeSpec("gcounter", GCounter, frozenset({"increment"}), lambda c: c.value),
    TypeSpec(
        "pncounter", PNCounter, frozenset({"increment", "decrement"}), lambda c: c.value
    ),
    TypeSpec("gset", GSet, frozenset({"add"}), lambda c: c.value),
    TypeSpec(
        "twopset", TwoPSet, frozenset({"add", "remove"}), lambda c: c.value
    ),
    TypeSpec("gmap", GMap, frozenset({"put", "put_chain", "bump"}), _gmap_reader),
    TypeSpec(
        "awset",
        AWSet,
        frozenset({"add", "remove", "clear"}),
        lambda c: c.value,
        remove_op="clear",
    ),
    TypeSpec("rwset", RWSet, frozenset({"add", "remove"}), lambda c: c.value),
    TypeSpec(
        "ccounter",
        CCounter,
        frozenset({"increment", "reset"}),
        lambda c: c.value,
        remove_op="reset",
    ),
    TypeSpec("lwwregister", LWWRegister, frozenset({"write"}), lambda c: c.value),
    TypeSpec(
        "mvregister", CausalMVRegister, frozenset({"write"}), lambda c: c.values
    ),
    TypeSpec("ewflag", EWFlag, frozenset({"enable", "disable"}), lambda c: c.enabled),
):
    register_type(_spec)


#: Prefix conventions shared by the workloads, examples, and tests.
DEFAULT_PREFIXES: Mapping[str, str] = {
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
}


class Schema:
    """Pure key → type resolution, identical at every replica.

    Resolution order: an explicit per-key binding, then the key's
    prefix (the part before ``separator``), then the default type.
    Bindings added with :meth:`bind` after deployment must be applied
    at every replica — the schema itself is not replicated.
    """

    def __init__(
        self,
        prefixes: Mapping[str, str] | None = None,
        *,
        default: str | None = None,
        separator: str = ":",
    ) -> None:
        self._prefixes = dict(DEFAULT_PREFIXES if prefixes is None else prefixes)
        self._default = default
        self._separator = separator
        self._bindings: Dict[Hashable, str] = {}

    def bind(self, key: Hashable, type_name: str) -> None:
        """Pin one key to a type, overriding prefix resolution."""
        type_spec(type_name)  # validate eagerly
        self._bindings[key] = type_name

    def type_of(self, key: Hashable) -> str:
        """The type name ``key`` resolves to."""
        bound = self._bindings.get(key)
        if bound is not None:
            return bound
        if isinstance(key, str) and self._separator in key:
            prefix = key.split(self._separator, 1)[0]
            name = self._prefixes.get(prefix)
            if name is not None:
                return name
        if self._default is not None:
            return self._default
        raise KVTypeError(
            f"schema cannot type key {key!r}: no binding, no known prefix, no default"
        )

    def spec_for(self, key: Hashable) -> TypeSpec:
        """The :class:`TypeSpec` governing ``key``."""
        return type_spec(self.type_of(key))

"""Observed-remove map: ``DotMap⟨K, V⟩`` over nested causal values.

A map whose values are themselves causal CRDTs (flags, registers,
AW-sets, or further maps), with observed-remove semantics on whole
keys: removing a key erases the value state the remover has seen, while
updates concurrent with the removal survive under fresh dots — the
same add-wins resolution as :class:`~repro.causal.awset.AWSet`, lifted
to arbitrary value types.

All nested values share the single top-level causal context, which is
what keeps an OR-map cheap: one context per map, not one per key.  A
key update runs a δ-mutator of the value's type on the *value view*
``(value store, map context)`` — an absent key's view starts from that
type's bottom — and wraps the resulting value delta back under the key
with the same delta context.

>>> from repro.causal.mvregister import CausalMVRegister
>>> carts = ORMap("A")
>>> _ = carts.update("alice", CausalMVRegister, "write", "3 apples")
>>> CausalMVRegister.values(carts.value_view("alice", CausalMVRegister))
frozenset({'3 apples'})
>>> _ = carts.remove("alice")
>>> "alice" in carts.keys()
False
"""

from __future__ import annotations

from typing import Any, FrozenSet, Hashable, Iterator

from repro.causal.causal import Causal, cover_key, cover_observed
from repro.causal.stores import DotMap
from repro.crdt.base import Crdt, delta_mutator


def _view(state: Causal, key: Hashable, value_type: type) -> Causal:
    """The value under ``key`` as a causal state sharing the map context.

    An absent key's view is ``value_type``'s bottom store paired with the
    map's context, so fresh dots drawn by a value δ-mutator never collide
    with dots used elsewhere in the map.
    """
    sub = state.store.get(key)
    if sub is None:
        sub = value_type.bottom().store
    return Causal(sub, state.context)


class ORMap(Crdt):
    """A map from keys to nested causal CRDT values."""

    __slots__ = ()

    bottom = staticmethod(Causal.map_bottom)

    @delta_mutator
    def update(
        replica: Hashable,
        state: Causal,
        key: Hashable,
        value_type: type,
        op: str,
        *args: Any,
    ) -> Causal:
        """Run ``value_type``'s δ-mutator ``op`` under ``key`` and re-wrap."""
        value_delta = value_type.mutators[op](replica, _view(state, key, value_type), *args)
        if value_delta.is_bottom:
            return state.bottom_like()
        return Causal(DotMap({key: value_delta.store}), value_delta.context)

    #: Cover the key's observed dots, shipping no payload.
    remove = delta_mutator(cover_key)
    #: Cover every key's observed dots.
    clear = delta_mutator(cover_observed)

    def keys(self) -> FrozenSet[Hashable]:
        """Keys currently holding at least one live dot."""
        return frozenset(self.state.store.keys())

    def value_view(self, key: Hashable, value_type: type) -> Causal:
        """The ``value_type`` value under ``key``, sharing the map context.

        Queries on the nested CRDT type read from this view.
        """
        return _view(self.state, key, value_type)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.state.store

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.state.store.keys())

    def __len__(self) -> int:
        return len(self.state.store)

"""Golden pins for the bytes a fingerprint hashes.

A digest fingerprint is BLAKE2b over an irreducible's ``repr``, so every
``__repr__`` of a lattice value is part of the repair protocol: two
replicas agree on a shard exactly when they print its irreducibles
identically.  The property tests compare the shard's fingerprint index
with ``digest_of``, and both read the same ``repr``, so a drift in the
printed form would pass them while moving every fingerprint, every
root and every ``kv-diff`` byte.  These pins do not move with the code:

* the exact ``repr`` of empty, one-item and several-item values of every
  container a decomposition yields (maps, sets, the three dot stores,
  causal contexts in all four shapes, an add-wins set after a remove),
  including keys that are ints, quoted strings and tuples, and
  several-item values whose ``repr`` order differs from their natural
  order;
* ``fingerprint(state)`` and the fingerprint index's root for three fixed
  states: a Table I GMap, a KV shard holding ``set:``/``aws:``/``cnt:``/
  ``gct:``/``reg:`` keys, and that shard after one remove.

Nothing here may depend on the hash seed: CI reruns this file under a
second ``PYTHONHASHSEED``.
"""

import pytest

from repro.causal import AWSet, Causal, CausalContext, Dot, DotFun, DotMap, DotSet
from repro.kv import AntiEntropyConfig, HashRing, KVStore
from repro.lattice import MapLattice, MaxInt, SetLattice
from repro.sync import StateBased
from repro.sync.digest import IncrementalDigest, digest_of, fingerprint, root_of
from repro.workloads import GMapWorkload


def _awset_after_a_remove():
    crdt = AWSet("A")
    for element in ("x", "y", "z"):
        crdt.add(element)
    crdt.remove("x")
    return crdt.state


#: name → (value, its exact ``repr``).
REPRS = {
    "map-empty": (MapLattice(), "MapLattice({})"),
    "map-one-str": (MapLattice({"k": MaxInt(3)}), "MapLattice({'k': MaxInt(3)})"),
    "map-one-quoted": (
        MapLattice({'q"k\'': SetLattice({"x"})}),
        "MapLattice({'q\"k\\'': SetLattice({'x'})})",
    ),
    "map-one-int": (MapLattice({7: MaxInt(1)}), "MapLattice({7: MaxInt(1)})"),
    "map-one-tuple": (
        MapLattice({("t", 1): MaxInt(2)}),
        "MapLattice({('t', 1): MaxInt(2)})",
    ),
    "map-several": (
        MapLattice({10: MaxInt(1), 9: MaxInt(2), "b": MaxInt(3), ("t", 1): MaxInt(4)}),
        "MapLattice({'b': MaxInt(3), ('t', 1): MaxInt(4), 10: MaxInt(1), 9: MaxInt(2)})",
    ),
    "set-empty": (SetLattice(), "SetLattice({})"),
    "set-one": (SetLattice({"x"}), "SetLattice({'x'})"),
    "set-one-quoted": (SetLattice({"it's"}), 'SetLattice({"it\'s"})'),
    "set-one-tuple": (SetLattice({("t", 1)}), "SetLattice({('t', 1)})"),
    "set-several": (
        SetLattice({10, 9, "b", "a"}),
        "SetLattice({'a', 'b', 10, 9})",
    ),
    "dotset-empty": (DotSet(), "DotSet({})"),
    "dotset-one": (DotSet([Dot("A", 3)]), "DotSet({'A'.3})"),
    "dotset-one-int-replica": (DotSet([Dot(0, 1)]), "DotSet({0.1})"),
    "dotset-several": (
        DotSet([Dot("B", 1), Dot("A", 10), Dot("A", 2), Dot(0, 1)]),
        "DotSet({'A'.2, 'A'.10, 'B'.1, 0.1})",
    ),
    "dotfun-empty": (DotFun(), "DotFun({})"),
    "dotfun-one": (DotFun({Dot("A", 1): MaxInt(2)}), "DotFun({'A'.1: MaxInt(2)})"),
    "dotfun-several": (
        DotFun({Dot("B", 1): MaxInt(1), Dot("A", 10): MaxInt(2), Dot("A", 2): MaxInt(3)}),
        "DotFun({'A'.2: MaxInt(3), 'A'.10: MaxInt(2), 'B'.1: MaxInt(1)})",
    ),
    "dotmap-empty": (DotMap(), "DotMap({})"),
    "dotmap-one": (DotMap({"x": DotSet([Dot("A", 1)])}), "DotMap({'x': DotSet({'A'.1})})"),
    "dotmap-one-tuple": (
        DotMap({("t", 1): DotSet([Dot("A", 1)])}),
        "DotMap({('t', 1): DotSet({'A'.1})})",
    ),
    "dotmap-several": (
        DotMap(
            {
                "y": DotSet([Dot("B", 2), Dot("A", 1)]),
                10: DotSet([Dot("A", 2)]),
                "x": DotMap({"inner": DotSet([Dot("C", 4)])}),
            }
        ),
        "DotMap({'x': DotMap({'inner': DotSet({'C'.4})}), 'y': DotSet({'A'.1, 'B'.2}), "
        "10: DotSet({'A'.2})})",
    ),
    "context-empty": (CausalContext(), "CausalContext(∅)"),
    "context-compact-one": (CausalContext({"A": 2}), "CausalContext({'A':2})"),
    "context-compact-several": (
        CausalContext({"B": 1, "A": 3, 0: 2}),
        "CausalContext({'A':3, 'B':1, 0:2})",
    ),
    "context-cloud-one": (
        CausalContext.from_dots([Dot("A", 3)]),
        "CausalContext(+{'A'.3})",
    ),
    "context-cloud-several": (
        CausalContext.from_dots([Dot("B", 3), Dot("A", 10), Dot("A", 3)]),
        "CausalContext(+{'A'.3, 'A'.10, 'B'.3})",
    ),
    "context-both": (
        CausalContext({"A": 2, "B": 1}, [Dot("A", 5), Dot("C", 2)]),
        "CausalContext({'A':2, 'B':1} +{'A'.5, 'C'.2})",
    ),
    "context-one-dot-absorbed": (
        CausalContext.from_dots([Dot(0, 1)]),
        "CausalContext({0:1})",
    ),
    "aws-after-remove": (
        _awset_after_a_remove(),
        "Causal(DotMap({'y': DotSet({'A'.2}), 'z': DotSet({'A'.3})}), "
        "CausalContext({'A':3}))",
    ),
}

#: name → the sorted ``repr`` of every irreducible a decomposition yields.
DECOMPOSITIONS = {
    "map-several": [
        "MapLattice({'b': MaxInt(3)})",
        "MapLattice({('t', 1): MaxInt(4)})",
        "MapLattice({10: MaxInt(1)})",
        "MapLattice({9: MaxInt(2)})",
    ],
    "set-several": [
        "SetLattice({'a'})",
        "SetLattice({'b'})",
        "SetLattice({10})",
        "SetLattice({9})",
    ],
    "aws-after-remove": [
        "Causal(DotMap({'y': DotSet({'A'.2})}), CausalContext(+{'A'.2}))",
        "Causal(DotMap({'z': DotSet({'A'.3})}), CausalContext(+{'A'.3}))",
        "Causal(DotMap({}), CausalContext({'A':1}))",
    ],
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_is_pinned(name):
    value, expected = REPRS[name]
    assert repr(value) == expected


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
def test_decomposition_reprs_are_pinned(name):
    value, _ = REPRS[name]
    assert sorted(repr(r) for r in value.decompose()) == DECOMPOSITIONS[name]


def test_causal_fragments_print_their_store():
    """The one-dot pieces of a counter and a register, down to the value."""
    fun = Causal(DotFun({Dot("A", 2): MaxInt(5)}), CausalContext({"A": 2}))
    assert sorted(repr(r) for r in fun.decompose()) == [
        "Causal(DotFun({'A'.2: MaxInt(5)}), CausalContext(+{'A'.2}))",
        "Causal(DotFun({}), CausalContext({'A':1}))",
    ]


# ---------------------------------------------------------------------------
# Three fixed states: their fingerprint and their index root.
# ---------------------------------------------------------------------------


def table1_gmap():
    """Table I's GMap: two rounds of ``gmap-10`` over 15 nodes (40 of 200 keys)."""
    workload = GMapWorkload(15, 10, rounds=2, total_keys=200)
    state = workload.bottom()
    for round_index in range(2):
        for node in range(15):
            for mutator in workload.updates_for(round_index, node):
                state = state.join(mutator(state))
    return state


def kv_store():
    return KVStore(
        replica=0,
        neighbors=(),
        bottom=MapLattice(),
        n_nodes=1,
        ring=HashRing((0,), n_shards=1, replication=1),
        inner_factory=StateBased,
        antientropy=AntiEntropyConfig(repair_interval=3, repair_fanout=8, repair_mode="digest"),
    )


def kv_shard(*, removed=False):
    """One shard holding every common key prefix, causal ones included."""
    store = kv_store()
    for element in ("x", 'q"uote', "z"):
        store.update("set:s", "add", element)
    for element in ("a", "b", "c"):
        store.update("aws:w", "add", element)
    store.update("aws:w", "remove", "a")
    store.update("aws:v", "add", "solo")
    store.update("cnt:c", "increment", 3)
    store.update("cnt:c", "decrement", 1)
    store.update("gct:g", "increment", 2)
    store.update("reg:r", "write", "v1")
    if removed:
        store.remove("aws:v")
    return store.shards[0].state


STATES = {
    "table1-gmap": table1_gmap,
    "kv-shard": kv_shard,
    "kv-shard-after-remove": lambda: kv_shard(removed=True),
}

#: name → (fingerprint(state).hex(), IncrementalDigest().root(state).hex()).
PINNED = {
    "table1-gmap": ("cc276a0bad26e146", "6b334bfd208e4995db6ce25cdbba4eb0"),
    "kv-shard": ("71ad61f769a609c1", "eea44a4cbf9ce1dc73ab15cbf296b6eb"),
    "kv-shard-after-remove": ("32f59adffa0eca00", "94d4b5dc314126033cd129e2cb811117"),
}


@pytest.mark.parametrize("name", sorted(STATES))
def test_state_fingerprint_and_root_are_pinned(name):
    state = STATES[name]()
    root = IncrementalDigest().root(state)
    assert (fingerprint(state).hex(), root.hex()) == PINNED[name]
    assert root == root_of(digest_of(state))


def test_the_remove_moves_the_root():
    assert PINNED["kv-shard"][1] != PINNED["kv-shard-after-remove"][1]

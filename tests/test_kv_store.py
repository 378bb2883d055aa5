"""The per-replica store engine: typing, routing, scheduling, framing."""

import pytest

from repro.kv import (
    AntiEntropyConfig,
    HashRing,
    KVCluster,
    KVRoutingError,
    KVStore,
    KVTypeError,
    KVUpdate,
    Schema,
    TypeSpec,
    kv_store_factory,
    register_type,
    type_spec,
)
from repro.causal import AWSet, DWFlag, ORMap
from repro.codec import encode
from repro.crdt import BCounter, Crdt
from repro.kv.types import DEFAULT_PREFIXES, TYPE_REGISTRY
from repro.lattice import MapLattice, MaxElements, MaxInt
from repro.sync import StateBased, keyed_bp_rr


def make_store(replica=0, n=4, replication=2, inner=keyed_bp_rr, **kwargs):
    ring = HashRing(range(n), replication=replication, n_shards=8)
    factory = kv_store_factory(ring, inner, **kwargs)
    neighbors = [i for i in range(n) if i != replica]
    return ring, factory(replica, neighbors, MapLattice(), n)


class TestSchema:
    def test_prefix_resolution(self):
        schema = Schema()
        assert schema.type_of("cnt:balance") == "pncounter"
        assert schema.type_of("aws:cart") == "awset"
        assert schema.type_of("flw:0000042") == "gset"

    def test_explicit_binding_wins(self):
        schema = Schema()
        schema.bind("cnt:weird", "gcounter")
        assert schema.type_of("cnt:weird") == "gcounter"

    def test_unresolvable_key(self):
        with pytest.raises(KVTypeError, match="cannot type"):
            Schema().type_of("mystery")

    def test_default_type(self):
        schema = Schema(default="lwwregister")
        assert schema.type_of("anything") == "lwwregister"

    def test_unknown_type_rejected_eagerly(self):
        with pytest.raises(KVTypeError, match="unknown CRDT type"):
            Schema().bind("k", "no-such-type")


class TestTypeSpecs:
    def test_unknown_operation(self):
        with pytest.raises(KVTypeError, match="no operation"):
            type_spec("gcounter").apply("A", None, "decrement", 1)

    def test_grow_only_types_cannot_be_removed(self):
        with pytest.raises(KVTypeError, match="grow-only"):
            type_spec("gset").remove_delta("A", None)

    def test_apply_does_not_mutate_the_input_state(self):
        spec = type_spec("gcounter")
        state = spec.bottom()
        delta = spec.apply("A", state, "increment", 3)
        assert state.is_bottom
        assert spec.read(delta) == 3

    def test_a_type_without_a_wire_format_is_refused_at_registration(self):
        """The WAL encodes a write's δ only at the next group commit, so
        registration is where an unencodable type must fail."""

        class Antichain(Crdt):
            __slots__ = ()
            bottom = staticmethod(
                lambda: MaxElements(dominates=lambda x, y: x % y == 0)
            )

        registered = dict(TYPE_REGISTRY)
        spec = TypeSpec("antichain", Antichain, lambda state: state)
        with pytest.raises(KVTypeError, match="no wire format"):
            register_type(spec)
        assert TYPE_REGISTRY == registered


#: type → (the write seeding a value, {mutator: (arguments that inflate
#: it, ``encode(δ).hex()`` of the δ they produce at replica 0)}).
WRITES = {
    "gcounter": (("increment", 1), {"increment": ((2,), "140103001003")}),
    "pncounter": (
        ("increment", 1),
        {
            "increment": ((2,), "140103001510031000"),
            "decrement": ((1,), "140103001510001001"),
        },
    ),
    "gset": (("add", "a"), {"add": (("b",), "1301050162")}),
    "twopset": (
        ("add", "a"),
        {"add": (("b",), "1513010501621300"), "remove": (("a",), "1513001301050161")},
    ),
    "gmap": (
        ("bump", "k"),
        {
            "put": (("k", MaxInt(9)), "140105016b1009"),
            "put_chain": (("body", "text"), "14010504626f6479120504746578740500"),
            "bump": (("k",), "140105016b1002"),
        },
    ),
    "awset": (
        ("add", "a"),
        {
            "add": (("b",), "20030105016201010300020001030002"),
            "remove": (("a",), "2003000103000100"),
            "clear": ((), "2003000103000100"),
        },
    ),
    "rwset": (
        ("add", "a"),
        {
            "add": (("b",), "20030107020501620201010300020001030002"),
            "remove": (("a",), "20030107020501610101010300020103000200"),
        },
    ),
    "ccounter": (
        ("increment", 1),
        {
            "increment": ((2,), "20020103000210030103000200"),
            "reset": ((), "2002000103000100"),
        },
    ),
    "lwwregister": (("write", "v1"), {"write": (("v2",), "16100212050276320500")}),
    "mvregister": (
        ("write", "v1"),
        {"write": (("v2",), "2002010300022101050276320103000200")},
    ),
    "ewflag": (
        ("enable",),
        {
            "enable": ((), "2001010300020103000200"),
            "disable": ((), "2001000103000100"),
        },
    ),
}

REGISTERED_OPS = [(name, op) for name, (_, ops) in WRITES.items() for op in sorted(ops)]


def seeded_value(name):
    """A one-replica store's value for ``name``'s key after its seed write."""
    seed, _ = WRITES[name]
    key = next(p for p, bound in DEFAULT_PREFIXES.items() if bound == name) + ":k"
    _, store = make_store(replica=0, n=2, replication=2)
    store.update(key, *seed)
    return key, store


def _seeded(crdt, *writes):
    """``crdt``'s state after the in-place ``writes`` (``(op, *args)``)."""
    for op, *args in writes:
        getattr(crdt, op)(*args)
    return crdt.state


def _bcounter():
    return _seeded(BCounter("A"), ("increment", 10))


def _dwflag():
    return _seeded(DWFlag("A"), ("disable",))


def _carts():
    return _seeded(ORMap("A"), ("update", "cart", AWSet, "add", "milk"))


#: Mutators no registered type serves, called as δ-functions: label →
#: (the δ at replica "A" against a seeded state, ``encode(δ).hex()``).
UNREGISTERED = {
    "bcounter.increment": (
        lambda: BCounter.increment("A", _bcounter(), 3),
        "15140105014115100d10001400",
    ),
    "bcounter.decrement": (
        lambda: BCounter.decrement("A", _bcounter(), 4),
        "15140105014115100010041400",
    ),
    "bcounter.transfer": (
        lambda: BCounter.transfer("A", _bcounter(), 5, "B"),
        "151400140107020501410501421005",
    ),
    "dwflag.enable": (lambda: DWFlag.enable("A", _dwflag()), "200100010501410100"),
    "dwflag.disable": (
        lambda: DWFlag.disable("A", _dwflag()),
        "20010105014102010501410200",
    ),
    "ormap.update": (
        lambda: ORMap.update("A", _carts(), "cart", AWSet, "add", "eggs"),
        "2003010504636172740301050465676773010105014102000105014102",
    ),
    "ormap.update-absent-key": (
        lambda: ORMap.update("A", _carts(), "list", AWSet, "add", "x"),
        "20030105046c6973740301050178010105014102000105014102",
    ),
    "ormap.remove": (lambda: ORMap.remove("A", _carts(), "cart"), "200300010501410100"),
    "ormap.clear": (lambda: ORMap.clear("A", _carts()), "200300010501410100"),
}


class TestDeltaGolden:
    """Every mutator's δ, byte for byte, against a seeded value.

    Pinned so that changing how a type is declared or dispatched cannot
    change what a write produces: the δ is what the WAL logs and the
    wire carries.
    """

    @pytest.mark.parametrize("name,op", REGISTERED_OPS)
    def test_registered_mutator(self, name, op):
        key, store = seeded_value(name)
        args, expected = WRITES[name][1][op]
        delta = type_spec(name).apply(0, store.value_lattice(key), op, *args)
        assert encode(delta).hex() == expected

    @pytest.mark.parametrize("label", sorted(UNREGISTERED))
    def test_unregistered_mutator(self, label):
        compute, expected = UNREGISTERED[label]
        assert encode(compute()).hex() == expected


class TestAWriteJoinsItsDeltaOnce:
    """``TypeSpec.apply`` hands the δ back unjoined; the shard joins it.

    Counted, not clocked: joins of the key's own value object.
    """

    def test_every_registered_mutator_is_covered(self):
        assert {name: set(ops) for name, (_, ops) in WRITES.items()} == {
            name: set(spec.crdt.mutators) for name, spec in TYPE_REGISTRY.items()
        }

    @pytest.mark.parametrize("name,op", REGISTERED_OPS)
    def test_one_join_and_the_same_delta(self, name, op, monkeypatch):
        key, store = seeded_value(name)
        args, _ = WRITES[name][1][op]
        current = store.value_lattice(key)
        # The δ as the type's declared δ-mutator computes it.
        expected = getattr(type_spec(name).crdt, op)(0, current, *args)
        assert not expected.is_bottom

        joins = []
        join = type(current).join

        def counted(self, other):
            if self is current:
                joins.append(other)
            return join(self, other)

        monkeypatch.setattr(type(current), "join", counted)
        delta = store.update(key, op, *args)
        assert delta == MapLattice({key: expected})
        assert joins == [expected]
        assert store.value_lattice(key) == current.join(expected)


class TestTypedApi:
    def test_heterogeneous_keyspace(self):
        _, store = make_store(replica=0, n=2, replication=2)
        store.update("gct:hits", "increment", 2)
        store.update("cnt:score", "increment", 5)
        store.update("cnt:score", "decrement", 1)
        store.update("set:tags", "add", "x")
        store.update("aws:cart", "add", "milk")
        store.update("reg:motd", "write", "hi", 7)
        assert store.get("gct:hits") == 2
        assert store.get("cnt:score") == 4
        assert store.get("set:tags") == {"x"}
        assert store.get("aws:cart") == frozenset({"milk"})
        assert store.get("reg:motd") == "hi"

    def test_unwritten_key_reads_bottom(self):
        _, store = make_store(replica=0, n=2, replication=2)
        assert store.get("set:empty") == set()
        assert store.value_lattice("set:empty") is None

    def test_duplicate_add_produces_bottom_delta(self):
        _, store = make_store(replica=0, n=2, replication=2)
        assert not store.update("set:tags", "add", "x").is_bottom
        assert store.update("set:tags", "add", "x").is_bottom

    def test_observed_remove(self):
        _, store = make_store(replica=0, n=2, replication=2)
        store.update("aws:cart", "add", "milk")
        store.remove("aws:cart")
        assert store.get("aws:cart") == frozenset()

    def test_routing_rejected_for_unowned_key(self):
        ring, store = make_store(replica=0, n=6, replication=2)
        foreign = next(
            f"set:{i}" for i in range(1000) if 0 not in ring.owners(f"set:{i}")
        )
        with pytest.raises(KVRoutingError):
            store.update(foreign, "add", "x")
        with pytest.raises(KVRoutingError):
            store.get(foreign)

    def test_raw_mutators_are_rejected(self):
        _, store = make_store(replica=0, n=2, replication=2)
        with pytest.raises(TypeError, match="KVUpdate"):
            store.local_update(lambda state: state)

    def test_keys_lists_written_keys(self):
        _, store = make_store(replica=0, n=2, replication=2)
        store.update("set:a", "add", "x")
        store.update("gct:b", "increment")
        assert set(store.keys()) == {"set:a", "gct:b"}


class TestWireFraming:
    def test_batched_frames_merge_per_destination(self):
        _, store = make_store(replica=0, n=2, replication=2)
        for i in range(12):
            store.update(f"set:{i:03d}", "add", f"e{i}")
        sends = store.sync_messages()
        assert sends
        for send in sends:
            assert send.message.kind == "kv-batch"
            entries = send.message.payload
            # Framing adds one shard tag per bundled message.
            assert send.message.metadata_units == sum(
                m.metadata_units for _, m in entries
            ) + len(entries)
            assert send.message.payload_bytes == sum(
                m.payload_bytes for _, m in entries
            )
        # One batch per destination.
        assert len({send.dst for send in sends}) == len(sends)

    def test_unexpected_wire_kind_rejected(self):
        from repro.sync.protocol import Message

        _, store = make_store(replica=0, n=2, replication=2)
        with pytest.raises(ValueError, match="unexpected wire"):
            store.handle_message(1, Message("delta", MapLattice(), 0, 0, 0))


class TestScheduler:
    def test_budget_defers_shards_and_backpressure_batches(self):
        """A tiny budget defers most shards; nothing is ever lost."""
        ring = HashRing(range(4), replication=2, n_shards=8)
        cluster = KVCluster(
            ring, keyed_bp_rr,
            antientropy=AntiEntropyConfig(budget_bytes=64),
        )
        for i in range(32):
            cluster.update(f"set:{i:03d}", "add", f"e{i}")
        cluster.run_round(updates=None)
        deferred = sum(
            node.scheduler.stats()["deferred"] for node in cluster.nodes
        )
        assert deferred > 0
        cluster.drain()
        assert cluster.converged()
        for i in range(32):
            assert cluster.value(f"set:{i:03d}") == {f"e{i}"}

    def test_repair_pushes_full_state_periodically(self):
        ring = HashRing(range(3), replication=3, n_shards=4)
        cluster = KVCluster(
            ring, StateBased,
            antientropy=AntiEntropyConfig(repair_interval=2, repair_fanout=4),
        )
        cluster.update("set:x", "add", "a")
        for _ in range(4):
            cluster.run_round(updates=None)
        repairs = sum(node.scheduler.stats()["repairs"] for node in cluster.nodes)
        assert repairs > 0

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            AntiEntropyConfig(budget_bytes=0)
        with pytest.raises(ValueError):
            AntiEntropyConfig(repair_interval=-1)
        with pytest.raises(ValueError):
            AntiEntropyConfig(repair_fanout=0)


class TestStoreAsSynchronizer:
    def test_keyspace_must_start_empty(self):
        from repro.lattice import MaxInt

        ring = HashRing(range(2), replication=2, n_shards=4)
        factory = kv_store_factory(ring, keyed_bp_rr)
        with pytest.raises(TypeError, match="empty MapLattice"):
            factory(0, [1], MapLattice({"k": MaxInt(1)}), 2)

    def test_disconnected_replica_group_rejected(self):
        ring = HashRing(range(3), replication=3, n_shards=2)
        factory = kv_store_factory(ring, keyed_bp_rr)
        with pytest.raises(ValueError, match="cannot reach co-owners"):
            factory(0, [1], MapLattice(), 3)  # replica 2 unreachable

    def test_memory_accounting_sums_shards(self):
        _, store = make_store(replica=0, n=2, replication=2)
        store.update("set:a", "add", "x")
        store.update("gct:b", "increment")
        assert store.state_units() == store.state.size_units()
        assert store.buffer_units() > 0  # δ-buffers hold the two deltas
        store.sync_messages()
        assert store.buffer_units() == 0

    def test_factory_is_labelled_for_reports(self):
        ring = HashRing(range(2), replication=2)
        factory = kv_store_factory(ring, keyed_bp_rr)
        assert factory.name == "kv[delta-based-bp-rr]"

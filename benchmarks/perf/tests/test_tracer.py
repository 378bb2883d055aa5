"""LayerTracer: self-time arithmetic, re-entry, patch/restore."""

import sys
import types

import pytest

import tracer as tracing
from tracer import LayerTracer, SpanDecl


class FakeClock:
    """A clock the traced toy functions advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


@pytest.fixture
def toy():
    """A throwaway two-module 'program' under the ``toyprog`` namespace."""
    clock = FakeClock()
    core = types.ModuleType("toyprog.core")
    user = types.ModuleType("toyprog.user")

    def encode(data):
        clock.spend(1.0)
        return data * 2

    class Tree:
        def __init__(self, children=()):
            self.children = list(children)

        def join(self):
            clock.spend(1.0)
            for child in self.children:
                child.join()  # same-layer re-entry
            return self

        def parts(self):
            for child in self.children:
                clock.spend(0.5)
                yield child

    class Leafy(Tree):
        def join(self):
            clock.spend(2.0)
            return self

    class Store:
        def __init__(self, tree):
            self.tree = tree

        def update(self):
            clock.spend(1.0)
            self.tree.join()  # child span in another layer
            clock.spend(1.0)
            return core.encode(b"ab")  # through the module, like real callers

        def outer_inner_outer(self):
            clock.spend(1.0)
            self.tree.via_store(self)

        def boom(self):
            clock.spend(1.0)
            raise KeyError("boom")

    def via_store(self, store):
        clock.spend(1.0)
        store.leaf()

    def leaf(self):
        clock.spend(3.0)

    Tree.via_store = via_store
    Store.leaf = leaf
    core.encode = encode
    core.Tree, core.Leafy, core.Store = Tree, Leafy, Store
    for cls in (Tree, Leafy, Store):
        cls.__module__ = "toyprog.core"
    user.encode = encode  # ``from toyprog.core import encode``
    sys.modules["toyprog.core"] = core
    sys.modules["toyprog.user"] = user
    table = (
        SpanDecl("toyprog.core:Tree.join", "lattice.join", "lattice", subclasses=True),
        SpanDecl("toyprog.core:Tree.parts", "lattice.parts", "lattice"),
        SpanDecl("toyprog.core:Tree.via_store", "lattice.via", "lattice"),
        SpanDecl("toyprog.core:Store.update", "store.update", "store"),
        SpanDecl("toyprog.core:Store.outer_inner_outer", "store.oio", "store"),
        SpanDecl("toyprog.core:Store.leaf", "store.leaf", "store"),
        SpanDecl("toyprog.core:Store.boom", "store.boom", "store"),
        SpanDecl("toyprog.core:encode", "codec.encode", "codec", "result"),
    )

    def make(**kwargs):
        return LayerTracer(
            table, clock=clock, namespace="toyprog", extra_modules=(), **kwargs
        )

    yield types.SimpleNamespace(core=core, user=user, clock=clock, make=make, table=table)
    del sys.modules["toyprog.core"], sys.modules["toyprog.user"]


def test_self_time_is_duration_minus_child_spans(toy):
    store = toy.core.Store(toy.core.Tree())
    with toy.make() as active:
        store.update()
    agg = active.aggregate()
    # update: 1 + [join 1] + 1 + [encode 1] = 4 total, 2 of its own.
    assert agg["store.update"] == {"calls": 1, "self_s": 2.0, "bytes": 0}
    assert agg["lattice.join"]["self_s"] == 1.0
    assert agg["codec.encode"] == {"calls": 1, "self_s": 1.0, "bytes": 4}
    # Self times partition the covered wall clock exactly.
    assert sum(entry["self_s"] for entry in agg.values()) == active.covered_s == 4.0


def test_same_layer_reentry_is_a_pass_through(toy):
    tree = toy.core.Tree([toy.core.Tree([toy.core.Tree()]), toy.core.Leafy()])
    with toy.make() as active:
        tree.join()
    agg = active.aggregate()["lattice.join"]
    # Four joins ran (1 + 1 + 1 + 2 seconds) but control entered the
    # layer once: one span, holding the recursion's whole time.
    assert agg["calls"] == 1
    assert agg["self_s"] == 5.0
    assert active.spans_seen == 1


def test_reentering_a_layer_through_another_layer_is_clocked(toy):
    store = toy.core.Store(toy.core.Tree())
    with toy.make() as active:
        store.outer_inner_outer()  # store -> lattice -> store
    agg = active.aggregate()
    assert agg["store.oio"]["self_s"] == 1.0
    assert agg["lattice.via"]["self_s"] == 1.0
    assert agg["store.leaf"] == {"calls": 1, "self_s": 3.0, "bytes": 0}
    spans = list(active.spans())
    assert [s["name"] for s in spans] == ["store.oio", "lattice.via", "store.leaf"]
    assert [s["parent"] for s in spans] == [-1, 0, 1]
    assert (spans[2]["start"], spans[2]["end"]) == (2.0, 5.0)


def test_subclass_overrides_are_patched_too(toy):
    with toy.make() as active:
        toy.core.Leafy().join()
    assert active.aggregate()["lattice.join"]["self_s"] == 2.0


def test_generators_are_materialized_inside_their_span(toy):
    tree = toy.core.Tree([toy.core.Tree(), toy.core.Tree()])
    with toy.make() as active:
        parts = tree.parts()
        assert active.aggregate()["lattice.parts"]["self_s"] == 1.0  # already run
        assert len(list(parts)) == 2


def test_patched_callables_are_restored_identity_equal(toy):
    core, user = toy.core, toy.user
    before = {
        "join": core.Tree.__dict__["join"],
        "leafy": core.Leafy.__dict__["join"],
        "update": core.Store.__dict__["update"],
        "encode": core.encode,
        "user_encode": user.encode,
    }
    active = toy.make()
    active.install()
    assert core.Tree.__dict__["join"] is not before["join"]
    assert core.encode is not before["encode"]
    # the importing module's binding is rebound to the same wrapper
    assert user.encode is core.encode
    assert core.encode.__wrapped__ is before["encode"]
    active.uninstall()
    assert core.Tree.__dict__["join"] is before["join"]
    assert core.Leafy.__dict__["join"] is before["leafy"]
    assert core.Store.__dict__["update"] is before["update"]
    assert core.encode is before["encode"]
    assert user.encode is before["user_encode"]
    assert not active.installed


def test_restored_after_an_exception_and_the_span_still_closes(toy):
    original = toy.core.Store.__dict__["boom"]
    store = toy.core.Store(toy.core.Tree())
    with pytest.raises(KeyError):
        with toy.make() as active:
            store.boom()
    assert toy.core.Store.__dict__["boom"] is original
    assert active.aggregate()["store.boom"] == {
        "calls": 1, "self_s": 1.0, "bytes": 0,
    }
    assert len(active._stack) == 1  # nothing left open


def test_failed_install_restores_what_it_patched(toy):
    original = toy.core.Tree.__dict__["join"]
    bad = toy.table + (SpanDecl("toyprog.core:Missing.method", "x.y", "x"),)
    active = LayerTracer(bad, clock=toy.clock, namespace="toyprog", extra_modules=())
    with pytest.raises(AttributeError):
        active.install()
    assert toy.core.Tree.__dict__["join"] is original
    assert not active.installed


def test_record_limit_bounds_memory_but_not_the_aggregates(toy):
    store = toy.core.Store(toy.core.Tree())
    with toy.make(record_limit=2) as active:
        for _ in range(5):
            store.update()
    assert active.spans_seen == 15
    assert len(list(active.spans())) == 2
    assert active.aggregate()["store.update"]["calls"] == 5


def test_write_spans_ends_with_a_summary(toy, tmp_path):
    import json

    store = toy.core.Store(toy.core.Tree())
    with toy.make() as active:
        store.update()
    path = tmp_path / "out" / "toy.spans.jsonl"
    active.write_spans(str(path), origin="test")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line.get("name") for line in lines[:-1]] == [
        "store.update", "lattice.join", "codec.encode",
    ]
    assert all(line["origin"] == "test" for line in lines)
    assert lines[-1]["summary"] and lines[-1]["spans_seen"] == 3


def test_merge_aggregates_sums_processes():
    one = {"a": {"calls": 1, "self_s": 0.5, "bytes": 3}}
    two = {"a": {"calls": 2, "self_s": 0.25, "bytes": 1},
           "b": {"calls": 1, "self_s": 1.0, "bytes": 0}}
    merged = tracing.merge_aggregates([one, two])
    assert merged["a"] == {"calls": 3, "self_s": 0.75, "bytes": 4}
    assert merged["b"]["calls"] == 1


# ----------------------------------------------------------------------
# The real table against the real program.
# ----------------------------------------------------------------------


def test_every_declared_target_exists_and_is_restored():
    import repro.codec
    import repro.serve.client
    from repro.kv.store import KVStore
    from repro.lattice.map_lattice import MapLattice
    from repro.sync.deltabased import DeltaBased

    originals = {
        "encode": repro.codec.encode,
        "client_encode": repro.serve.client.encode,
        "join": MapLattice.__dict__["join"],
        "store_update": KVStore.__dict__["local_update"],
        "inner_update": DeltaBased.__dict__["local_update"],
    }
    active = LayerTracer()
    active.install()
    try:
        patched = {(holder, attr) for holder, attr, _ in active._patched}
        for decl in tracing.SPAN_TABLE:
            module_name, _, qualname = decl.target.partition(":")
            module = sys.modules[module_name]
            parts = qualname.split(".")
            holder = module if len(parts) == 1 else getattr(module, parts[0])
            if decl.subclasses and getattr(
                holder.__dict__.get(parts[-1]), "__isabstractmethod__", False
            ):
                continue  # abstract base: only the overrides are patched
            assert (holder, parts[-1]) in patched, f"{decl.target} was not patched"
        # KVStore is a Synchronizer, but its row puts it in kv.store.
        assert KVStore.__dict__["local_update"].__wrapped__ is originals["store_update"]
        assert repro.serve.client.encode is repro.codec.encode
    finally:
        active.uninstall()
    assert repro.codec.encode is originals["encode"]
    assert repro.serve.client.encode is originals["client_encode"]
    assert MapLattice.__dict__["join"] is originals["join"]
    assert KVStore.__dict__["local_update"] is originals["store_update"]
    assert DeltaBased.__dict__["local_update"] is originals["inner_update"]


def test_tracing_a_real_join_counts_one_span_per_layer_entry():
    from repro.lattice.map_lattice import MapLattice
    from repro.lattice.primitives import MaxInt

    a = MapLattice({f"k{i}": MaxInt(i + 1) for i in range(50)})
    b = MapLattice({f"k{i}": MaxInt(i + 2) for i in range(50)})
    with LayerTracer() as active:
        joined = a.join(b)
    assert joined.get("k0") == MaxInt(2)
    agg = active.aggregate()["lattice.join"]
    assert agg["calls"] == 1  # 50 nested MaxInt joins passed through
    assert active.covered_s == pytest.approx(agg["self_s"])

"""One contract for Algorithm 1, run over both delta-based classes.

``DeltaBased`` and ``KeyedDeltaBased`` execute the same receive rule,
``store`` and per-neighbour group build; they differ only in
granularity (one part vs one part per object).  Every test here is
written against *behaviour* — what the next ``sync_messages()`` ships,
and to whom — through a small harness per class that says how that
class spells a set of elements and an inbound δ-group.  ``DeltaBased``
runs twice, over a grow-only set and over Table I's GMap, whose δ-groups
are the key-disjoint unions ``MapLattice.join`` assembles and sizes by
addition.

Class-specific behaviour stays with its class: the paper's Figure 4/5
executions in ``test_sync_deltabased.py``, per-object granularity in
``test_sync_keyed.py``.
"""

import pytest

from repro import codec, sizes
from repro.kv import KV_ALGORITHMS, HashRing, kv_store_factory
from repro.lattice import MapLattice, MaxInt, SetLattice
from repro.sync import (
    ALGORITHMS,
    EXTRA_ALGORITHMS,
    DeltaBased,
    KeyedDeltaBased,
    classic,
    delta_bp,
    delta_bp_rr,
    delta_rr,
    keyed_bp,
    keyed_bp_rr,
    keyed_classic,
    keyed_rr,
)
from repro.sync.protocol import Message, Synchronizer


class Plain:
    """``DeltaBased`` over a grow-only set."""

    label = "plain"
    #: Bytes a buffered one-element δ takes beside the element itself.
    wrapping_bytes = 0

    def make(self, replica, neighbors, *, bp, rr):
        return DeltaBased(
            replica, neighbors, SetLattice(), n_nodes=4, bp=bp, rr=rr
        )

    def content(self, *elements):
        return SetLattice(elements)

    def add(self, element):
        def mutator(state):
            if element in state:
                return state.bottom_like()
            return SetLattice((element,))

        return mutator

    def inbound(self, *elements):
        """A δ-group message carrying ``elements``, as a neighbour sends it."""
        payload = self.content(*elements)
        return Message(
            "delta", payload, payload.size_units(), payload.size_bytes(),
            sizes.INT_BYTES, 1,
        )


class Keyed(Plain):
    """``KeyedDeltaBased`` over a store with one set object, ``"obj"``."""

    label = "keyed"
    wrapping_bytes = 3  # "obj"

    def make(self, replica, neighbors, *, bp, rr):
        return KeyedDeltaBased(
            replica, neighbors, MapLattice(), n_nodes=4, bp=bp, rr=rr
        )

    def content(self, *elements):
        return MapLattice({"obj": SetLattice(elements)})

    def add(self, element):
        def mutator(state):
            current = state.get("obj")
            if current is not None and element in current:
                return state.bottom_like()
            return MapLattice({"obj": SetLattice((element,))})

        return mutator

    def inbound(self, *elements):
        payload = self.content(*elements)
        return Message(
            "keyed-delta", payload, payload.size_units(), payload.size_bytes(),
            sizes.INT_BYTES, 1,
        )


class Gmap(Plain):
    """``DeltaBased`` over Table I's GMap: an element is a key bound to 1,
    so the δs RR buffers are key-disjoint maps."""

    label = "gmap"
    wrapping_bytes = sizes.INT_BYTES

    def make(self, replica, neighbors, *, bp, rr):
        return DeltaBased(
            replica, neighbors, MapLattice(), n_nodes=4, bp=bp, rr=rr
        )

    def content(self, *elements):
        return MapLattice({element: MaxInt(1) for element in elements})

    def add(self, element):
        def mutator(state):
            if element in state:
                return state.bottom_like()
            return MapLattice({element: MaxInt(1)})

        return mutator


FLAGS = [(False, False), (True, False), (False, True), (True, True)]
CASES = [(harness, bp, rr) for harness in (Plain(), Keyed(), Gmap()) for bp, rr in FLAGS]


def case_id(case):
    harness, bp, rr = case
    return harness.label + ("-bp" if bp else "") + ("-rr" if rr else "")


def cases(condition=lambda bp, rr: True):
    selected = [case for case in CASES if condition(case[1], case[2])]
    return pytest.mark.parametrize(
        "harness,bp,rr", selected, ids=[case_id(case) for case in selected]
    )


def shipped_to(sends, dst):
    """What ``sends`` carries to ``dst`` — None when nothing was sent."""
    for send in sends:
        if send.dst == dst:
            return send.message.payload
    return None


# ----------------------------------------------------------------------
# Lines 6–13: local updates and the periodic step.
# ----------------------------------------------------------------------


@cases()
def test_nothing_to_send_while_nothing_is_buffered(harness, bp, rr):
    node = harness.make(0, [1], bp=bp, rr=rr)
    assert node.sync_messages() == []


@cases()
def test_local_update_inflates_state_and_is_shipped_to_every_neighbour(harness, bp, rr):
    node = harness.make(0, [1, 2], bp=bp, rr=rr)
    delta = node.local_update(harness.add("x"))
    assert delta == harness.content("x")
    assert node.state == harness.content("x")
    assert node.buffer
    sends = node.sync_messages()
    assert shipped_to(sends, 1) == harness.content("x")
    assert shipped_to(sends, 2) == harness.content("x")


@cases()
def test_buffer_is_empty_once_the_channel_settles(harness, bp, rr):
    node = harness.make(0, [1, 2], bp=bp, rr=rr)
    node.local_update(harness.add("x"))
    node.sync_messages()
    assert not node.buffer
    assert node.sync_messages() == []


@cases()
def test_bottom_deltas_are_not_buffered(harness, bp, rr):
    node = harness.make(0, [1], bp=bp, rr=rr)
    node.local_update(harness.add("x"))
    node.local_update(harness.add("x"))  # duplicate: δ = ⊥
    assert len(node.buffer) == 1


@cases()
def test_updates_between_two_steps_travel_as_one_group(harness, bp, rr):
    node = harness.make(0, [1], bp=bp, rr=rr)
    node.local_update(harness.add("x"))
    node.local_update(harness.add("y"))
    [send] = node.sync_messages()
    assert send.message.payload == harness.content("x", "y")


def assert_sized_as_a_cold_rebuild(sends):
    """Every δ-group is accounted at what a receiver decoding it would count."""
    assert sends
    for send in sends:
        message = send.message
        rebuilt = codec.decode(codec.encode(message.payload))
        assert message.payload_units == rebuilt.size_units()
        assert message.payload_bytes == rebuilt.size_bytes()


@cases()
def test_every_group_is_sized_as_a_cold_rebuild_of_it(harness, bp, rr):
    """Groups are sized by adding their parts' memos where the parts
    are disjoint, so drive every way a part gets (or lacks) one: a
    local δ no one has sized opens the buffer, two received groups
    overlap it and each other, a memory sample sizes what is buffered,
    and one more local δ arrives after the sample."""
    node = harness.make(0, [1, 2, 3], bp=bp, rr=rr)
    node.local_update(harness.add("mine"))
    node.handle_message(1, harness.inbound("mine", "from-1", "shared"))
    node.handle_message(2, harness.inbound("shared", "from-2"))
    node.memory_bytes()
    node.local_update(harness.add("late"))
    sends = node.sync_messages()
    assert_sized_as_a_cold_rebuild(sends)
    assert {send.dst for send in sends} == {1, 2, 3}
    assert shipped_to(sends, 3) == harness.content(
        "mine", "from-1", "shared", "from-2", "late"
    )
    # The next step's groups are built from fresh entries only.
    node.handle_message(3, harness.inbound("from-3", "late"))
    node.local_update(harness.add("last"))
    assert_sized_as_a_cold_rebuild(node.sync_messages())


@cases()
def test_a_buffer_of_one_unsized_local_delta_ships_at_its_cold_size(harness, bp, rr):
    """No sample, no earlier group: the step itself sizes the δ."""
    node = harness.make(0, [1, 2], bp=bp, rr=rr)
    node.local_update(harness.add("only"))
    assert_sized_as_a_cold_rebuild(node.sync_messages())


# ----------------------------------------------------------------------
# Lines 14–17: the receive rule, observed through what is forwarded.
# ----------------------------------------------------------------------


def receive_overlapping_group(harness, bp, rr):
    """Replica 0 (neighbours 1, 2) holds x; 1 sends it the group {x, y}."""
    node = harness.make(0, [1, 2], bp=bp, rr=rr)
    node.local_update(harness.add("x"))
    node.sync_messages()
    node.handle_message(1, harness.inbound("x", "y"))
    assert node.state == harness.content("x", "y")
    return node.sync_messages()


@cases()
def test_dominated_group_is_dropped(harness, bp, rr):
    """Line 16, either variant: nothing new means nothing is buffered."""
    node = harness.make(0, [1, 2], bp=bp, rr=rr)
    node.local_update(harness.add("x"))
    node.sync_messages()
    node.handle_message(1, harness.inbound("x"))
    assert not node.buffer
    assert node.sync_messages() == []


@cases(lambda bp, rr: rr)
def test_rr_forwards_the_extraction_not_the_group(harness, bp, rr):
    """Line 15: only ∆(d, xᵢ) = {y} is stored, so only {y} moves on."""
    sends = receive_overlapping_group(harness, bp, rr)
    assert shipped_to(sends, 2) == harness.content("y")


@cases(lambda bp, rr: not rr)
def test_classic_forwards_the_whole_group(harness, bp, rr):
    """Line 16 classic: {x, y} ⋢ xᵢ, so x is re-buffered redundantly."""
    sends = receive_overlapping_group(harness, bp, rr)
    assert shipped_to(sends, 2) == harness.content("x", "y")


@cases(lambda bp, rr: bp)
def test_bp_never_echoes_a_group_to_its_origin(harness, bp, rr):
    sends = receive_overlapping_group(harness, bp, rr)
    assert {send.dst for send in sends} == {2}


@cases(lambda bp, rr: not bp)
def test_without_bp_the_origin_gets_its_own_group_back(harness, bp, rr):
    sends = receive_overlapping_group(harness, bp, rr)
    assert shipped_to(sends, 1) == shipped_to(sends, 2)


@cases(lambda bp, rr: bp)
def test_bp_mixes_local_and_foreign_entries_per_neighbour(harness, bp, rr):
    node = harness.make(0, [1, 2], bp=bp, rr=rr)
    node.handle_message(1, harness.inbound("theirs"))
    node.local_update(harness.add("mine"))
    sends = node.sync_messages()
    assert shipped_to(sends, 1) == harness.content("mine")
    assert shipped_to(sends, 2) == harness.content("theirs", "mine")


# ----------------------------------------------------------------------
# absorb_state: repair content rides the same δ-path.
# ----------------------------------------------------------------------


@cases(lambda bp, rr: bp)
def test_absorbed_state_is_buffered_tagged_and_forwarded_not_echoed(harness, bp, rr):
    """Repair content from neighbour 1 reaches neighbour 2, and only 2:
    the entry carries its source as BP's tag, so it is never echoed."""
    node = harness.make(0, [1, 2], bp=bp, rr=rr)
    absorbed = node.absorb_state(harness.content("x"), src=1)
    assert absorbed == harness.content("x")
    assert node.state == harness.content("x")
    assert len(node.buffer) == 1
    sends = node.sync_messages()
    assert {send.dst for send in sends} == {2}
    assert shipped_to(sends, 2) == harness.content("x")


@cases()
def test_absorbed_state_without_a_source_goes_to_every_neighbour(harness, bp, rr):
    node = harness.make(0, [1, 2], bp=bp, rr=rr)
    node.absorb_state(harness.content("x"))
    sends = node.sync_messages()
    assert {send.dst for send in sends} == {1, 2}


@cases()
def test_absorb_extracts_only_the_novelty_whatever_rr_says(harness, bp, rr):
    node = harness.make(0, [1, 2], bp=bp, rr=rr)
    node.local_update(harness.add("x"))
    node.sync_messages()
    assert node.absorb_state(harness.content("x", "y"), src=1) == harness.content("y")
    assert node.absorb_state(harness.content("x", "y"), src=1).is_bottom
    assert shipped_to(node.sync_messages(), 2) == harness.content("y")


# ----------------------------------------------------------------------
# Memory accounting (Section V-B.3).
# ----------------------------------------------------------------------


@cases(lambda bp, rr: bp)
def test_memory_accounting(harness, bp, rr):
    node = harness.make(0, [1], bp=bp, rr=rr)
    node.local_update(harness.add("abcd"))
    assert node.buffer_units() == 1
    assert node.buffer_bytes() == harness.wrapping_bytes + 4
    assert node.metadata_bytes() > 0
    # 1 origin tag (BP) + 1 sequence number per neighbour.
    assert node.metadata_units() == 2
    assert node.memory_units() == node.state_units() + 1 + 2


@cases(lambda bp, rr: not bp)
def test_origin_tags_cost_nothing_without_bp(harness, bp, rr):
    node = harness.make(0, [1, 2], bp=bp, rr=rr)
    node.local_update(harness.add("abcd"))
    assert node.metadata_units() == 2  # the two per-neighbour sequence numbers
    assert node.metadata_bytes() == 2 * sizes.INT_BYTES


# ----------------------------------------------------------------------
# The label table.
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "factories,cls,bottom",
    [
        ((classic, delta_bp, delta_rr, delta_bp_rr), DeltaBased, SetLattice()),
        ((keyed_classic, keyed_bp, keyed_rr, keyed_bp_rr), KeyedDeltaBased, MapLattice()),
    ],
    ids=["plain", "keyed"],
)
def test_factories_bind_flags_and_labels(factories, cls, bottom):
    labels = ["delta-based", "delta-based-bp", "delta-based-rr", "delta-based-bp-rr"]
    for factory, (bp, rr), label in zip(factories, FLAGS, labels):
        node = factory(replica=0, neighbors=[1], bottom=bottom, n_nodes=2)
        assert type(node) is cls
        assert (node.bp, node.rr) == (bp, rr)
        assert factory.name == label


#: Every registered factory, and a store's: a runtime builds each replica
#: from ``replica=``, ``neighbors=``, ``bottom=`` and ``n_nodes=`` alone.
EVERY_FACTORY = {
    **{f"sync:{label}": factory for label, factory in ALGORITHMS.items()},
    **{f"extra:{label}": factory for label, factory in EXTRA_ALGORITHMS.items()},
    **{f"kv:{label}": factory for label, factory in KV_ALGORITHMS.items()},
    "kv-store": kv_store_factory(HashRing(range(2), replication=2, n_shards=4), keyed_bp_rr),
}


@pytest.mark.parametrize("factory", EVERY_FACTORY.values(), ids=EVERY_FACTORY.keys())
def test_every_factory_builds_from_exactly_the_four_keywords(factory):
    node = factory(replica=0, neighbors=[1], bottom=MapLattice(), n_nodes=2)
    assert isinstance(node, Synchronizer)
    assert (node.replica, node.neighbors, node.n_nodes) == (0, (1,), 2)
    with pytest.raises(TypeError):
        factory(replica=0, neighbors=[1], bottom=MapLattice(), n_nodes=2, size_model=None)

"""A delta-based replica inflates its own state in place until it hands it out.

``Synchronizer.state`` hands the replica's value out, and from then on
that value never changes; until then Algorithm 1's ``store`` joins each
δ into the state's own dict (``MapLattice.join_owned``).  These tests
check that the shortcut is invisible: every value that ever left the
replica — a read state, a buffered δ, a sent payload — stays equal to a
snapshot taken when it left, the state is still the join of everything
put in, and sizes are still those of a cold rebuild.

They also hold the δ-mutator contract the shortcut rests on: a
δ-mutator is handed the replica's own state, so it must neither return
nor keep it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro import codec, sizes
from repro.crdt import InsufficientRights
from repro.lattice import MapLattice, MaxInt, SetLattice
from repro.sync import DeltaBased, KeyedDeltaBased
from repro.sync.protocol import Message
from repro.workloads import GCounterWorkload, GMapWorkload, GSetWorkload

from test_kv_store import SPECS, UNREGISTERED, WRITES, seeded_value

KEYS = ("a", "b", "c", "d", "e")
NEIGHBORS = (1, 2)


def cold(value):
    """The same value rebuilt from its bytes: no memo, no lineage."""
    return codec.decode(codec.encode(value))


class Flat:
    """``DeltaBased`` over a grow-only map of counters (Table I's GMap)."""

    kind = "delta"
    values = st.integers(min_value=1, max_value=4).map(MaxInt)

    def __init__(self, bp, rr):
        self.bp, self.rr = bp, rr

    def make(self):
        return DeltaBased(0, NEIGHBORS, MapLattice(), 3, bp=self.bp, rr=self.rr)

    def message(self, payload):
        return Message(self.kind, payload, payload.size_units(), payload.size_bytes(), 8, 1)


class Keyed(Flat):
    """``KeyedDeltaBased``: one Algorithm 1 instance per object key."""

    kind = "keyed-delta"
    values = st.frozensets(st.sampled_from("xyz"), min_size=1, max_size=2).map(SetLattice)

    def make(self):
        return KeyedDeltaBased(0, NEIGHBORS, MapLattice(), 3, bp=self.bp, rr=self.rr)


HARNESSES = [
    *(Flat(bp, rr) for bp in (False, True) for rr in (False, True)),
    *(Keyed(bp, rr) for bp in (False, True) for rr in (False, True)),
]


def contents(harness):
    return st.dictionaries(st.sampled_from(KEYS), harness.values, min_size=1, max_size=4).map(
        MapLattice
    )


def steps(harness):
    return st.lists(
        st.one_of(
            st.tuples(st.just("update"), contents(harness)),
            st.tuples(st.just("receive"), st.sampled_from(NEIGHBORS), contents(harness)),
            st.tuples(st.just("absorb"), st.sampled_from((None,) + NEIGHBORS), contents(harness)),
            # A neighbour sends back something that left this replica:
            # its values are the replica's own objects.
            st.tuples(st.just("echo"), st.sampled_from(NEIGHBORS), st.integers(0, 30)),
            st.just(("read",)),
            st.just(("sync",)),
            st.just(("sample",)),
        ),
        max_size=25,
    )


class Run:
    """One replica driven through a script, with everything that left it."""

    def __init__(self, harness):
        self.harness = harness
        self.replica = harness.make()
        self.reference = MapLattice()
        #: ``(value, repr when it left, as a neighbour would send it back)``
        #: for every read, buffered δ and payload.
        self.left = []
        self.buffered = set()

    def put_in(self, content):
        self.reference = self.reference.join(content)

    def leave(self, value, key=None):
        echo = value if key is None else MapLattice({key: value})
        self.left.append((value, repr(value), echo))

    def step(self, op):
        replica, harness = self.replica, self.harness
        name = op[0]
        owned_before, state_before = replica._owned, replica._state
        if name == "update":
            content = op[1]
            delta = replica.local_update(lambda state: content.delta(state))
            self.put_in(delta)
        elif name in ("receive", "echo"):
            if name == "receive":
                payload = op[2]
            elif self.left:
                payload = self.left[op[2] % len(self.left)][2]
            else:
                return
            self.put_in(payload)
            replica.handle_message(op[1], harness.message(payload))
        elif name == "absorb":
            self.put_in(op[2])
            replica.absorb_state(op[2], op[1])
        elif name == "read":
            self.leave(replica.state)
            assert not replica._owned
            return
        elif name == "sync":
            for send in replica.sync_messages():
                payload = send.message.payload
                assert send.message.payload_units == cold(payload).size_units()
                assert send.message.payload_bytes == cold(payload).size_bytes()
                self.leave(payload)
            return
        else:
            self.check_sizes()
            assert (replica._owned, replica._state) == (owned_before, state_before)
            return
        # A store into a state no one else has seen keeps the object, and
        # an owned state is nothing that ever left the replica.
        if owned_before:
            assert replica._state is state_before
        if replica._owned:
            assert all(replica._state is not value for value, _, _ in self.left)
            assert all(replica._state is not delta for _, delta, _ in replica.buffer)
        for key, delta, _ in replica.buffer:
            if id(delta) not in self.buffered:
                self.buffered.add(id(delta))
                self.leave(delta, key)

    def check_sizes(self):
        replica = self.replica
        state = cold(replica._state)
        assert replica.state_units() == state.size_units()
        assert replica.state_bytes() == state.size_bytes()
        assert replica.buffer_units() == sum(cold(d).size_units() for _, d, _ in replica.buffer)
        assert replica.buffer_bytes() == sum(
            sizes.sizeof(key) + cold(d).size_bytes() for key, d, _ in replica.buffer
        )

    def check_left_alone(self):
        for value, snapshot, _ in self.left:
            assert repr(value) == snapshot


def _label(harness):
    return f"{type(harness).__name__}-bp{harness.bp:d}-rr{harness.rr:d}"


@pytest.mark.parametrize("harness", HARNESSES, ids=_label)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_nothing_that_left_the_replica_changes(harness, data):
    run = Run(harness)
    for op in data.draw(steps(harness)):
        run.step(op)
        run.check_left_alone()
    run.check_sizes()
    assert run.replica._state == run.reference
    assert run.replica.state == run.reference


def _put(key, value):
    return lambda state: MapLattice({key: value}).delta(state)


@pytest.mark.parametrize("harness", [Flat(True, True), Keyed(True, True)], ids=_label)
def test_stores_keep_one_state_object_until_a_read(harness):
    replica = harness.make()
    value = SetLattice({"x"}) if isinstance(replica, KeyedDeltaBased) else MaxInt(1)
    replica.local_update(_put("a", value))  # ⊥ ⊔ δ is δ itself: buffered, so not owned
    assert not replica._owned
    replica.local_update(_put("b", value))
    owned = replica._state
    assert replica._owned
    replica.local_update(_put("c", value))
    replica.handle_message(1, harness.message(MapLattice({"d": value})))
    replica.absorb_state(MapLattice({"e": value}), 2)
    assert replica._state is owned
    assert sorted(owned.keys()) == list("abcde")

    seen = replica.state
    snapshot = repr(seen)
    replica.local_update(_put("f", value))
    assert replica._state is not seen and replica._owned
    assert repr(seen) == snapshot
    assert sorted(replica._state.keys()) == list("abcdef")


def test_assigning_the_state_ends_ownership():
    replica = Flat(True, True).make()
    for key in "ab":
        replica.local_update(_put(key, MaxInt(1)))
    assert replica._owned
    given_value = MapLattice({"z": MaxInt(3)})
    replica.state = given_value
    replica.local_update(_put("c", MaxInt(1)))
    assert given_value == MapLattice({"z": MaxInt(3)})
    assert replica._state is not given_value


# ----------------------------------------------------------------------
# The δ-mutator contract: a pure function that neither returns nor
# keeps its argument.
# ----------------------------------------------------------------------


REGISTERED = [(name, op) for name, spec in SPECS.items() for op in sorted(spec.crdt.mutators)]


@pytest.mark.parametrize("name,op", REGISTERED)
def test_registered_delta_mutators_leave_their_argument_alone(name, op):
    key, store = seeded_value(name)
    state = store.value_lattice(key)
    snapshot = (repr(state), codec.encode(state))
    args, _ = WRITES[name][1][op]
    delta = SPECS[name].crdt.mutators[op](0, state, *args)
    assert delta is not state
    assert (repr(state), codec.encode(state)) == snapshot


# ----------------------------------------------------------------------
# Optimality (Section III-B): a δ-mutator returns exactly Δ(m(x), x).
# ----------------------------------------------------------------------


def assert_optimal(state, delta):
    """``δ`` is the optimal delta of its own inflation of ``state``: it
    holds no part of ``state``, and it is ⊥ exactly when nothing grew."""
    inflated = state.join(delta)
    assert delta == inflated.delta(state)
    assert delta.is_bottom == (inflated == state)


#: Where each mutator is applied: the seeded value, ⊥, and the seeded
#: value after the same write (where a repeat of an idempotent write
#: must come back ⊥).
POINTS = ("seeded", "bottom", "rewritten")

#: Writes ⊥ cannot take: their type's precondition refuses them.
REFUSED_AT_BOTTOM = {
    "twopset.remove": KeyError,
    "bcounter.decrement": InsufficientRights,
    "bcounter.transfer": InsufficientRights,
}


def _check_optimal_at(point, label, bottom, seeded, mutate):
    if point == "bottom" and label in REFUSED_AT_BOTTOM:
        with pytest.raises(REFUSED_AT_BOTTOM[label]):
            mutate(bottom)
        return
    state = bottom if point == "bottom" else seeded
    if point == "rewritten":
        state = state.join(mutate(state))
    assert_optimal(state, mutate(state))


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("name,op", REGISTERED)
def test_registered_delta_mutators_are_optimal(name, op, point):
    key, store = seeded_value(name)
    spec = SPECS[name]
    args, _ = WRITES[name][1][op]
    _check_optimal_at(
        point,
        f"{name}.{op}",
        spec.bottom(),
        store.value_lattice(key),
        lambda x: spec.crdt.mutators[op](0, x, *args),
    )


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("label", sorted(UNREGISTERED))
def test_unregistered_delta_mutators_are_optimal(label, point):
    crdt, seeded, mutate, _ = UNREGISTERED[label]
    _check_optimal_at(point, label, crdt.bottom(), seeded(), mutate)


TABLE_I = [
    GCounterWorkload(4),
    GSetWorkload(4),
    *(GMapWorkload(4, percent, total_keys=40) for percent in (10, 30, 60, 100)),
]


@pytest.mark.parametrize("workload", TABLE_I, ids=lambda w: w.name)
def test_table1_delta_mutators_leave_their_argument_alone(workload):
    state = workload.bottom()
    for round_index in range(3):
        for node in range(workload.n_nodes):
            for mutator in workload.updates_for(round_index, node):
                snapshot = repr(state)
                delta = mutator(state)
                assert delta is not state
                assert repr(state) == snapshot
                state = state.join(delta)

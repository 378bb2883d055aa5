"""Property tests for the hot-path caches: they must be invisible.

Both caches exist purely for speed, so their whole contract is
observational equivalence with the code they replaced:

* :class:`~repro.sync.digest.IncrementalDigest` must return exactly
  ``digest_of(state)`` / ``root_of(digest_of(state))`` — and, against
  any remote digest, ``delta_against_digest(state, remote)`` — for
  *any* sequence of states it is shown — monotone join growth (the
  normal store lifecycle), arbitrary replacement (handoff installs,
  WAL rebuilds), key removal, and non-``MapLattice`` fallbacks alike.
* The :func:`~repro.codec.frame_message` memo must never serve bytes
  that differ from a fresh encode of an equal message — across local
  updates, receptions, and repair absorptions, every frame leaving a
  synchronizer decodes back to its own payload.

Hypothesis drives both through random mutation sequences over every
lattice family; the deterministic tests pin the sharing structure of
the synchronizers' fan-out (one frozen message per δ-group, private
messages only for BP-excluded neighbours).
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.codec import decode_message, frame_message
from repro.lattice import MapLattice, SetLattice
from repro.sync import DeltaBased, KeyedDeltaBased
from repro.sync.digest import (
    IncrementalDigest,
    delta_against_digest,
    digest_of,
    root_of,
)

from conftest import ALL_LATTICE_STRATEGIES, lattice_lists


def values_from(family: str, *, min_size=1, max_size=8):
    return lattice_lists(family, min_size=min_size, max_size=max_size)


family_and_values = st.sampled_from(sorted(ALL_LATTICE_STRATEGIES)).flatmap(
    lambda fam: st.tuples(st.just(fam), values_from(fam))
)


# ---------------------------------------------------------------------------
# IncrementalDigest ≡ recompute, under every mutation shape.
# ---------------------------------------------------------------------------


@given(family_and_values)
def test_incremental_digest_tracks_monotone_growth(case):
    """The store lifecycle: state only ever moves up the lattice."""
    _, deltas = case
    cache = IncrementalDigest()
    state = deltas[0].bottom_like()
    for delta in deltas:
        state = state.join(delta)
        assert cache.digest(state) == digest_of(state)
        assert cache.root(state) == root_of(digest_of(state))


@given(family_and_values)
def test_incremental_digest_tracks_arbitrary_replacement(case):
    """Handoff installs and rebuilds replace state wholesale — keys may
    vanish, values may go *down*; the cache must not care."""
    _, states = case
    cache = IncrementalDigest()
    for state in states:
        assert cache.digest(state) == digest_of(state)
        assert cache.root(state) == root_of(digest_of(state))


@given(st.sampled_from(["MapLattice[MaxInt]", "MapLattice[Set]"]).flatmap(
    lambda fam: st.tuples(st.just(fam), values_from(fam, max_size=6))
))
def test_incremental_digest_interleaves_with_queries(case):
    """Re-querying an unchanged state is pure; changing it afterwards
    still refreshes correctly (no stale memo survives a mutation)."""
    _, states = case
    cache = IncrementalDigest()
    for state in states:
        first = cache.digest(state)
        assert cache.digest(state) is first  # unchanged state: memo hit
        assert first == digest_of(state)
        assert cache.root(state) == root_of(first)


def test_incremental_digest_sees_unshared_key_changes():
    """A key whose value object is replaced (not reused by join) must be
    re-fingerprinted even when the map's key set is unchanged."""
    cache = IncrementalDigest()
    a = MapLattice({"k": SetLattice({"x"})})
    assert cache.root(a) == root_of(digest_of(a))
    b = a.join(MapLattice({"k": SetLattice({"y"})}))
    assert b.entries.keys() == a.entries.keys()
    assert cache.root(b) == root_of(digest_of(b))
    assert root_of(digest_of(b)) != root_of(digest_of(a))  # a real change


# ---------------------------------------------------------------------------
# IncrementalDigest.missing ≡ delta_against_digest, whatever the remote holds.
# ---------------------------------------------------------------------------

#: Fingerprints no state of these families produces.
FOREIGN = [bytes([i]) * 8 for i in range(3)]


def assert_missing_matches(cache, state, remote):
    assert cache.missing(state, remote) == delta_against_digest(state, remote)


def check_missing(cache, state, data):
    """``missing`` against the explicit corner digests and a drawn one."""
    own = sorted(digest_of(state))
    assert_missing_matches(cache, state, frozenset())
    assert_missing_matches(cache, state, frozenset(own))
    for fp in own:  # the remote is one irreducible short
        assert_missing_matches(cache, state, frozenset(own) - {fp})
    held = data.draw(st.frozensets(st.sampled_from(own))) if own else frozenset()
    foreign = data.draw(st.frozensets(st.sampled_from(FOREIGN)))
    assert_missing_matches(cache, state, held | foreign)
    # The third read leaves the other two truthful.
    assert cache.digest(state) == frozenset(own)
    assert cache.root(state) == root_of(frozenset(own))


@given(family_and_values, st.data())
def test_missing_tracks_monotone_growth(case, data):
    _, deltas = case
    cache = IncrementalDigest()
    state = deltas[0].bottom_like()
    check_missing(cache, state, data)
    for delta in deltas:
        state = state.join(delta)
        check_missing(cache, state, data)


@given(family_and_values, st.data())
def test_missing_tracks_arbitrary_replacement(case, data):
    """Keys may vanish and values go down between two asks."""
    _, states = case
    cache = IncrementalDigest()
    for state in states:
        check_missing(cache, state, data)


@given(
    st.sampled_from(["MapLattice[MaxInt]", "MapLattice[Set]"]).flatmap(
        lambda fam: ALL_LATTICE_STRATEGIES[fam]
    ),
    st.data(),
)
def test_missing_forgets_removed_keys(state, data):
    """A key dropped from the state is dropped from every later delta."""
    cache = IncrementalDigest()
    check_missing(cache, state, data)
    for key in state.entries:
        shrunk = MapLattice({k: v for k, v in state.entries.items() if k != key})
        check_missing(cache, shrunk, data)
        assert key not in cache.missing(shrunk, frozenset()).entries
    check_missing(cache, state, data)


def test_missing_ships_a_wholly_lacking_value_as_it_stands():
    """The join of ``⇓v`` is ``v``: no copy, no decomposition."""
    held = SetLattice({"a", "b"})
    lacked = SetLattice({"c", "d"})
    state = MapLattice({"held": held, "lacked": lacked, "partly": SetLattice({"e", "f"})})
    remote = digest_of(MapLattice({"held": held, "partly": SetLattice({"e"})}))
    delta = IncrementalDigest().missing(state, remote)
    assert delta == MapLattice({"lacked": lacked, "partly": SetLattice({"f"})})
    assert delta.entries["lacked"] is lacked


# ---------------------------------------------------------------------------
# The frame memo never serves stale bytes.
# ---------------------------------------------------------------------------


def fresh_frame(message):
    """Encode an equal message with no memo attached."""
    return frame_message(dataclasses.replace(message))


def assert_frames_faithful(sends):
    for send in sends:
        frame = frame_message(send.message)
        assert frame is frame_message(send.message)  # memo hit, same object
        assert frame.data == fresh_frame(send.message).data
        decoded = decode_message(frame.data)
        assert decoded.payload == send.message.payload
        assert decoded.payload_units == send.message.payload_units


@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from("abcdefgh")),
        min_size=1,
        max_size=24,
    )
)
@settings(deadline=None)
def test_delta_sync_frames_never_stale(script):
    """Random update/sync/deliver interleavings on a BP+RR triangle:
    every frame leaving any replica encodes exactly its payload."""
    nodes = {
        r: DeltaBased(
            r, [n for n in range(3) if n != r], SetLattice(),
            n_nodes=3, bp=True, rr=True,
        )
        for r in range(3)
    }
    for step, (replica, element) in enumerate(script):
        nodes[replica].local_update(
            lambda state, e=element: (
                state.bottom_like() if e in state else SetLattice((e,))
            )
        )
        if step % 3 == 2:
            for node in nodes.values():
                sends = node.sync_messages()
                assert_frames_faithful(sends)
                for send in sends:
                    nodes[send.dst].handle_message(node.replica, send.message)
    for node in nodes.values():
        assert_frames_faithful(node.sync_messages())


@given(
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(["k1", "k2", "k3"]),
            st.sampled_from("abcd"),
        ),
        min_size=1,
        max_size=18,
    )
)
@settings(deadline=None)
def test_keyed_sync_frames_never_stale_across_absorb(script):
    """The keyed store path, including repair absorption — the memo on
    earlier messages must not leak into post-absorb encodings."""
    nodes = {
        r: KeyedDeltaBased(
            r, [n for n in range(3) if n != r], MapLattice(),
            n_nodes=3, bp=True, rr=True,
        )
        for r in range(3)
    }
    for step, (replica, key, element) in enumerate(script):
        nodes[replica].local_update(
            lambda state, k=key, e=element: MapLattice({k: SetLattice((e,))})
        )
        if step % 3 == 1:
            for node in nodes.values():
                sends = node.sync_messages()
                assert_frames_faithful(sends)
                for send in sends:
                    nodes[send.dst].handle_message(node.replica, send.message)
        if step % 5 == 4:
            # Blanket-style repair: absorb a peer's full state.
            src = (replica + 1) % 3
            nodes[replica].absorb_state(nodes[src].state, src)
    for node in nodes.values():
        assert_frames_faithful(node.sync_messages())


# ---------------------------------------------------------------------------
# The sharing structure of the fan-out.
# ---------------------------------------------------------------------------


def gset_add(element):
    def mutator(state):
        if element in state:
            return state.bottom_like()
        return SetLattice((element,))

    return mutator


class TestSharedMessageFanOut:
    def test_untagged_neighbours_share_one_message_object(self):
        a = DeltaBased(0, [1, 2, 3], SetLattice(), n_nodes=4)
        a.local_update(gset_add("x"))
        sends = a.sync_messages()
        assert len(sends) == 3
        assert len({id(send.message) for send in sends}) == 1

    def test_bp_gives_the_tagged_neighbour_a_private_message(self):
        a = DeltaBased(0, [1, 2, 3], SetLattice(), n_nodes=4, bp=True)
        a.handle_message(1, _delta_message(SetLattice({"from1"})))
        a.local_update(gset_add("mine"))
        by_dst = {send.dst: send.message for send in a.sync_messages()}
        # Neighbour 1 must not get its own contribution back...
        assert by_dst[1].payload == SetLattice({"mine"})
        # ...while 2 and 3 get the full group, through one shared object.
        assert by_dst[2].payload == SetLattice({"from1", "mine"})
        assert by_dst[2] is by_dst[3]
        assert by_dst[1] is not by_dst[2]

    def test_keyed_untagged_neighbours_share_one_bundle(self):
        a = KeyedDeltaBased(
            0, [1, 2, 3], MapLattice(), n_nodes=4, bp=True, rr=True
        )
        a.local_update(lambda state: MapLattice({"k": SetLattice({"v"})}))
        sends = a.sync_messages()
        assert len({id(send.message) for send in sends}) == 1
        assert sends[0].message.payload == MapLattice({"k": SetLattice({"v"})})

    def test_keyed_bp_excludes_the_origin_from_its_own_reflection(self):
        a = KeyedDeltaBased(
            0, [1, 2], MapLattice(), n_nodes=3, bp=True, rr=True
        )
        a.handle_message(1, _keyed_message(MapLattice({"k": SetLattice({"theirs"})})))
        a.local_update(lambda state: MapLattice({"j": SetLattice({"ours"})}))
        by_dst = {send.dst: send.message for send in a.sync_messages()}
        assert by_dst[1].payload == MapLattice({"j": SetLattice({"ours"})})
        assert by_dst[2].payload == MapLattice(
            {"k": SetLattice({"theirs"}), "j": SetLattice({"ours"})}
        )


def _delta_message(payload):
    """``payload`` as a δ-group message, built by a real sender."""
    sender = DeltaBased(9, [0], SetLattice(), n_nodes=10)
    sender.local_update(lambda state: payload)
    [send] = sender.sync_messages()
    return send.message


def _keyed_message(payload):
    sender = KeyedDeltaBased(9, [0], MapLattice(), n_nodes=10)
    sender.local_update(lambda state: payload)
    [send] = sender.sync_messages()
    return send.message

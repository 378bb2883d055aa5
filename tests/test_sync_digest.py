"""Tests for pairwise state-driven and digest-driven synchronization."""

import pytest
from hypothesis import given, strategies as st

from repro.causal import AWSet
from repro.crdt import GCounter, GSet
from repro.lattice import MapLattice, MaxInt, SetLattice
from repro.sizes import SizeModel
from repro.sync.digest import (
    delta_against_digest,
    FINGERPRINT_BYTES,
    digest_driven_sync,
    digest_of,
    fingerprint,
    full_state_sync,
    key_fingerprints,
    state_driven_sync,
)

from conftest import ALL_LATTICE_STRATEGIES
from test_causal_lattice import causal_states

MODEL = SizeModel()


def big_states(overlap=500, each=20):
    """Two large GSet states sharing most elements."""
    common = {f"shared-{i:05d}-padding-padding" for i in range(overlap)}
    a = SetLattice(common | {f"only-a-{i:05d}-padding-pad" for i in range(each)})
    b = SetLattice(common | {f"only-b-{i:05d}-padding-pad" for i in range(each)})
    return a, b


class TestFingerprints:
    def test_deterministic(self):
        assert fingerprint(SetLattice({"a"})) == fingerprint(SetLattice({"a"}))

    def test_distinct_values_distinct_prints(self):
        assert fingerprint(SetLattice({"a"})) != fingerprint(SetLattice({"b"}))

    def test_digest_size_tracks_decomposition(self):
        state = SetLattice({"a", "b", "c"})
        assert len(digest_of(state)) == 3

    def test_delta_against_digest_exact(self):
        a = SetLattice({"a", "b"})
        b = SetLattice({"b", "c"})
        assert delta_against_digest(b, digest_of(a)) == SetLattice({"c"})

    def test_map_states_fingerprint_consistently(self):
        x = MapLattice({"k": MaxInt(3)})
        y = MapLattice({"k": MaxInt(3)})
        assert fingerprint(x) == fingerprint(y)


#: Store keys of every shape a fingerprint prints: ints, strings that
#: need escaping, non-ASCII strings and tuples.
KEYS = st.one_of(
    st.integers(-3, 300),
    st.sampled_from(["k", 'q"uote', "it's", "both'\"", "back\\slash", "ключ", "aws:0"]),
    st.tuples(st.text(max_size=3), st.integers(0, 9)),
)


def reference_key_fingerprints(key, value):
    return tuple(fingerprint(MapLattice({key: r})) for r in value.decompose())


@given(KEYS, st.sampled_from(sorted(ALL_LATTICE_STRATEGIES)).flatmap(ALL_LATTICE_STRATEGIES.get))
def test_key_fingerprints_is_the_singleton_map_reference(key, value):
    """Same fingerprints as the singleton maps, in decomposition order."""
    assert key_fingerprints(key, value) == reference_key_fingerprints(key, value)


@given(KEYS, causal_states())
def test_key_fingerprints_on_reachable_causal_states(key, value):
    """AWSet/RWSet/EWFlag/MVReg/CCounter states, removes included."""
    assert key_fingerprints(key, value) == reference_key_fingerprints(key, value)


class TestPairwiseSync:
    def test_all_strategies_converge_identically(self):
        a, b = big_states()
        expected = a.join(b)
        for strategy in (full_state_sync, state_driven_sync, digest_driven_sync):
            outcome = strategy(a, b, MODEL)
            assert outcome.converged_state == expected

    def test_state_driven_cheaper_than_full(self):
        a, b = big_states()
        assert state_driven_sync(a, b, MODEL).bytes_sent < full_state_sync(a, b, MODEL).bytes_sent

    def test_digest_driven_cheapest_on_large_overlap(self):
        a, b = big_states()
        digest = digest_driven_sync(a, b, MODEL)
        state = state_driven_sync(a, b, MODEL)
        assert digest.bytes_sent < state.bytes_sent

    def test_message_counts_match_paper(self):
        """2 messages state-driven, 3 digest-driven (Section VI)."""
        a, b = big_states(overlap=5, each=2)
        assert state_driven_sync(a, b, MODEL).messages == 2
        assert digest_driven_sync(a, b, MODEL).messages == 3

    def test_disjoint_states(self):
        a = SetLattice({"a"})
        b = SetLattice({"b"})
        outcome = digest_driven_sync(a, b, MODEL)
        assert outcome.converged_state == SetLattice({"a", "b"})

    def test_identical_states_ship_no_payload(self):
        a = SetLattice({"x", "y"})
        outcome = digest_driven_sync(a, a, MODEL)
        # Only the two digests travel; payload contributions are zero.
        assert outcome.bytes_sent == 2 * len(digest_of(a)) * 8

    def test_empty_states(self):
        a = SetLattice()
        outcome = digest_driven_sync(a, a, MODEL)
        assert outcome.converged_state.is_bottom
        assert outcome.bytes_sent == 0

    def test_works_on_gcounter_states(self):
        a, b = GCounter("A"), GCounter("B")
        a.increment(3)
        b.increment(5)
        outcome = digest_driven_sync(a.state, b.state, MODEL)
        merged = GCounter("X", state=outcome.converged_state)
        assert merged.value == 8

    def test_partition_recovery_scenario(self):
        """Two replicas diverge during a partition, then reconcile."""
        a, b = GSet("A"), GSet("B")
        for i in range(50):
            a.add(f"a-{i}")
            b.add(f"b-{i}")
        outcome = digest_driven_sync(a.state, b.state, MODEL)
        assert len(outcome.converged_state.elements) == 100


def _diverged_awsets():
    a, b = AWSet("A"), AWSet("B")
    a.add("x")
    b.merge(a)
    a.add("only-a")
    b.remove("x")
    b.add("only-b")
    return a.state, b.state


#: Two diverged, overlapping states of three lattice families.
DIVERGED = {
    "powerset": big_states(overlap=30, each=4),
    "map-of-sets": (
        MapLattice({"k": SetLattice({"a", "b"}), "a": SetLattice({"p"}), "n": MaxInt(2)}),
        MapLattice({"k": SetLattice({"b", "c"}), "b": SetLattice({"q"}), "n": MaxInt(5)}),
    ),
    "causal": _diverged_awsets(),
}


@pytest.mark.parametrize("family", sorted(DIVERGED))
def test_digest_driven_exchange_is_the_three_messages_of_section_vi(family):
    """Message 2 is built in one pass (``digest_and_missing``); what
    the exchange moves is still the two-pass definition, byte for byte."""
    a, b = DIVERGED[family]
    digest_a, digest_b = digest_of(a), digest_of(b)
    delta_for_a = delta_against_digest(b, digest_a)
    delta_for_b = delta_against_digest(a, digest_b)
    assert not delta_for_a.is_bottom and not delta_for_b.is_bottom
    outcome = digest_driven_sync(a, b, MODEL)
    assert outcome.messages == 3
    assert outcome.bytes_sent == (
        len(digest_a) * FINGERPRINT_BYTES
        + delta_for_a.size_bytes(MODEL)
        + len(digest_b) * FINGERPRINT_BYTES
        + delta_for_b.size_bytes(MODEL)
    )
    assert outcome.converged_state == a.join(b)

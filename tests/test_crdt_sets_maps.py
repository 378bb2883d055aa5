"""Unit tests for GSet, GMap, TwoPSet, and LWWRegister."""

import pytest

from repro.crdt import GMap, GSet, LWWRegister, TwoPSet, optimal_delta_mutator
from repro.lattice import Chain, MapLattice, MaxInt, SetLattice


class TestGSet:
    def test_add_and_query(self):
        s = GSet("A")
        s.add("x")
        assert "x" in s
        assert s.value == frozenset({"x"})

    def test_optimal_add_delta(self):
        """addδ returns ⊥ when the element is already present (§III-B)."""
        s = GSet("A")
        first = s.add("x")
        second = s.add("x")
        assert first == SetLattice({"x"})
        assert second.is_bottom

    def test_merge(self):
        a, b = GSet("A"), GSet("B")
        a.add("x"); b.add("y")
        a.merge(b)
        assert a.value == frozenset({"x", "y"})

    def test_len(self):
        s = GSet("A")
        s.add("x"); s.add("y"); s.add("x")
        assert len(s) == 2

    def test_derived_delta_mutator_matches_builtin(self):
        """optimal_delta_mutator(m) = ∆(m(x), x) equals the hand-written addδ."""
        derived = optimal_delta_mutator(lambda s: s.add("e"))
        fresh = GSet("A").state
        assert derived(fresh) == SetLattice({"e"})
        present = SetLattice({"e", "f"})
        assert derived(present).is_bottom


class TestGMap:
    def test_put_and_get(self):
        m = GMap("A")
        m.put("k", MaxInt(3))
        assert m.get("k") == MaxInt(3)
        assert "k" in m
        assert len(m) == 1

    def test_put_delta_only_novel_part(self):
        m = GMap("A")
        m.put("k", MaxInt(5))
        delta = m.put("k", MaxInt(3))  # dominated write
        assert delta.is_bottom
        assert m.get("k") == MaxInt(5)

    def test_bump_inflates_by_one(self):
        m = GMap("A")
        m.bump("k"); m.bump("k")
        delta = m.bump("k")
        assert m.get("k") == MaxInt(3)
        assert delta == MapLattice({"k": MaxInt(3)})

    def test_update_with_function(self):
        m = GMap("A")
        m.put("k", SetLattice({"a"}))
        m.update("k", lambda cur: cur.add("b"))
        assert m.get("k") == SetLattice({"a", "b"})

    def test_put_chain_write_once_register(self):
        m = GMap("A")
        m.put_chain("tweet-1", "hello world")
        value = m.get("tweet-1")
        assert isinstance(value, Chain)
        assert value.value == "hello world"

    def test_merge_pointwise(self):
        a, b = GMap("A"), GMap("B")
        a.put("x", MaxInt(2)); a.put("y", MaxInt(9))
        b.put("x", MaxInt(5))
        a.merge(b)
        assert a.get("x") == MaxInt(5)
        assert a.get("y") == MaxInt(9)


class TestTwoPSet:
    def test_add_remove_lifecycle(self):
        s = TwoPSet("A")
        s.add("x"); s.add("y"); s.remove("x")
        assert s.value == frozenset({"y"})
        assert "x" not in s
        assert len(s) == 1

    def test_removed_elements_stay_removed(self):
        """Re-adding a tombstoned element has no effect (2P semantics)."""
        s = TwoPSet("A")
        s.add("x"); s.remove("x"); s.add("x")
        assert "x" not in s

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            TwoPSet("A").remove("ghost")

    def test_duplicate_operations_yield_bottom_deltas(self):
        s = TwoPSet("A")
        s.add("x")
        assert s.add("x").is_bottom
        s.remove("x")
        assert s.remove("x").is_bottom

    def test_concurrent_add_remove_removal_wins(self):
        a, b = TwoPSet("A"), TwoPSet("B")
        a.add("x")
        b.merge(a)
        b.remove("x")
        a.merge(b); b.merge(a)
        assert a.state == b.state
        assert "x" not in a


class TestLWWRegister:
    def test_later_write_wins(self):
        r = LWWRegister("A")
        r.write("first", timestamp=1)
        r.write("second", timestamp=2)
        assert r.value == "second"
        assert r.timestamp == 2

    def test_stale_write_loses(self):
        r = LWWRegister("A")
        r.write("current", timestamp=10)
        delta = r.write("stale", timestamp=5)
        assert r.value == "current"
        assert delta.is_bottom

    def test_auto_timestamp_always_visible(self):
        r = LWWRegister("A")
        r.write("a")
        r.write("b")
        assert r.value == "b"
        assert r.timestamp == 2

    def test_concurrent_writes_converge_deterministically(self):
        a, b = LWWRegister("A"), LWWRegister("B")
        a.write("from-a", timestamp=7)
        b.write("from-b", timestamp=7)
        a.merge(b); b.merge(a)
        assert a.state == b.state
        assert a.value == max("from-a", "from-b")  # value-chain tiebreak


"""Unit tests for the three dot-store shapes.

Each store's causal join must implement the per-dot three-way decision
— unseen (keep), live-in-both (keep/merge), seen-and-removed (drop) —
and the live-side helpers (``irreducibles``, ``delta_live``,
``leq_live``) must agree with it.  These tests exercise each rule in
isolation with handcrafted contexts; the lattice-level property tests
cover their composition.
"""

import pytest

from repro import sizes
from repro.causal import Atom, CausalContext, Dot, DotFun, DotMap, DotSet
from repro.lattice.primitives import MaxInt

A1, A2, B1, B2 = Dot("A", 1), Dot("A", 2), Dot("B", 1), Dot("B", 2)


def ctx(*dots):
    return CausalContext.from_dots(dots)


# ---------------------------------------------------------------------------
# DotSet.
# ---------------------------------------------------------------------------


class TestDotSet:
    def test_join_keeps_common_dots(self):
        joined = DotSet([A1]).join(DotSet([A1]), ctx(A1), ctx(A1))
        assert joined == DotSet([A1])

    def test_join_keeps_unseen_dots(self):
        """A dot the other context never saw is a new event: keep it."""
        joined = DotSet([A1]).join(DotSet([B1]), ctx(A1), ctx(B1))
        assert joined.dots() == {A1, B1}

    def test_join_drops_seen_but_removed_dots(self):
        """The other side saw A1 (context) but dropped it (store): removal wins."""
        removed_side = DotSet()
        joined = DotSet([A1]).join(removed_side, ctx(A1), ctx(A1))
        assert joined.is_empty

    def test_join_is_symmetric_on_removal(self):
        joined = DotSet().join(DotSet([A1]), ctx(A1), ctx(A1))
        assert joined.is_empty

    def test_irreducibles_are_singletons(self):
        fragments = list(DotSet([A1, B1]).irreducibles())
        assert sorted(dot for _, dot in fragments) == [A1, B1]
        assert all(fragment == DotSet([dot]) for fragment, dot in fragments)

    def test_delta_live_keeps_only_unseen(self):
        fresh = DotSet([A1, B1]).delta_live(DotSet([A1]), ctx(A1))
        assert fresh == DotSet([B1])

    def test_delta_live_skips_dots_removed_there(self):
        """B1 is in the other context (dead there): nothing to send."""
        fresh = DotSet([B1]).delta_live(DotSet(), ctx(B1))
        assert fresh.is_empty

    def test_leq_live_fails_when_other_keeps_a_dot_we_removed(self):
        # self saw A1 (context) but no longer stores it; other still does.
        assert not DotSet().leq_live(DotSet([A1]), ctx(A1))

    def test_leq_live_holds_for_unseen_remote_dots(self):
        assert DotSet().leq_live(DotSet([A1]), ctx())

    def test_size_accounting(self):
        assert DotSet([A1, B1]).size_units() == 2
        assert DotSet([A1]).size_bytes() == sizes.VECTOR_ENTRY_BYTES


# ---------------------------------------------------------------------------
# DotFun.
# ---------------------------------------------------------------------------


class TestDotFun:
    def test_rejects_bottom_values(self):
        with pytest.raises(ValueError, match="bottom"):
            DotFun({A1: MaxInt(0)})

    def test_join_merges_common_entries_with_value_join(self):
        left = DotFun({A1: MaxInt(3)})
        right = DotFun({A1: MaxInt(5)})
        joined = left.join(right, ctx(A1), ctx(A1))
        assert joined.get(A1) == MaxInt(5)

    def test_join_keeps_unseen_entries(self):
        left = DotFun({A1: MaxInt(1)})
        right = DotFun({B1: MaxInt(2)})
        joined = left.join(right, ctx(A1), ctx(B1))
        assert joined.get(A1) == MaxInt(1)
        assert joined.get(B1) == MaxInt(2)

    def test_join_drops_removed_entries(self):
        left = DotFun({A1: MaxInt(1)})
        joined = left.join(DotFun(), ctx(A1), ctx(A1))
        assert joined.is_empty

    def test_irreducibles_split_values(self):
        """A composite value yields one fragment per value irreducible."""
        from repro.lattice.set_lattice import SetLattice

        store = DotFun({A1: SetLattice({"x", "y"})})
        fragments = sorted(repr(f) for f, _ in store.irreducibles())
        assert len(fragments) == 2

    def test_delta_live_sends_value_increment_on_common_dot(self):
        mine = DotFun({A1: MaxInt(5)})
        theirs = DotFun({A1: MaxInt(3)})
        fresh = mine.delta_live(theirs, ctx(A1))
        assert fresh.get(A1) == MaxInt(5)

    def test_delta_live_skips_equal_common_dot(self):
        mine = DotFun({A1: MaxInt(3)})
        fresh = mine.delta_live(DotFun({A1: MaxInt(3)}), ctx(A1))
        assert fresh.is_empty

    def test_delta_live_skips_dot_removed_there(self):
        """Seen-and-removed covers any payload: no value increment is sent."""
        mine = DotFun({A1: MaxInt(9)})
        fresh = mine.delta_live(DotFun(), ctx(A1))
        assert fresh.is_empty

    def test_leq_live_checks_value_order(self):
        small = DotFun({A1: MaxInt(2)})
        large = DotFun({A1: MaxInt(4)})
        assert small.leq_live(large, ctx(A1))
        assert not large.leq_live(small, ctx(A1))

    def test_atom_values_join_when_equal(self):
        left = DotFun({A1: Atom("v")})
        right = DotFun({A1: Atom("v")})
        assert left.join(right, ctx(A1), ctx(A1)).get(A1) == Atom("v")

    def test_size_accounting_includes_values(self):
        store = DotFun({A1: Atom("xyz")})
        assert store.size_units() == 1
        assert store.size_bytes() == sizes.VECTOR_ENTRY_BYTES + 3


# ---------------------------------------------------------------------------
# DotMap.
# ---------------------------------------------------------------------------


class TestDotMap:
    def test_empty_subs_are_not_represented(self):
        assert DotMap({"k": DotSet()}).is_empty

    def test_join_is_pointwise_with_shared_contexts(self):
        left = DotMap({"x": DotSet([A1])})
        right = DotMap({"y": DotSet([B1])})
        joined = left.join(right, ctx(A1), ctx(B1))
        assert set(joined.keys()) == {"x", "y"}

    def test_join_removes_key_when_all_dots_die(self):
        """The other side observed x's only dot and dropped it."""
        left = DotMap({"x": DotSet([A1])})
        joined = left.join(DotMap(), ctx(A1), ctx(A1))
        assert joined.is_empty

    def test_join_keeps_concurrent_readd(self):
        """A fresh dot under the same key survives an observed removal."""
        readded = DotMap({"x": DotSet([A2])})
        removed = DotMap()
        joined = readded.join(removed, ctx(A1, A2), ctx(A1))
        assert joined.get("x") == DotSet([A2])

    def test_irreducibles_wrap_sub_fragments(self):
        store = DotMap({"x": DotSet([A1, B1])})
        fragments = list(store.irreducibles())
        assert len(fragments) == 2
        assert all(list(frag.keys()) == ["x"] for frag, _ in fragments)

    def test_delta_live_recurses_per_key(self):
        mine = DotMap({"x": DotSet([A1]), "y": DotSet([B1])})
        theirs = DotMap({"x": DotSet([A1])})
        fresh = mine.delta_live(theirs, ctx(A1))
        assert set(fresh.keys()) == {"y"}

    def test_leq_live_recurses_per_key(self):
        mine = DotMap({"x": DotSet([A1])})
        theirs = DotMap({"x": DotSet([A1]), "y": DotSet([B1])})
        assert mine.leq_live(theirs, ctx(A1))
        # Once we have observed B1 and removed it, the order flips.
        assert not mine.leq_live(theirs, ctx(A1, B1))

    def test_dots_are_collected_recursively(self):
        nested = DotMap({"outer": DotMap({"inner": DotSet([A1, B2])})})
        assert nested.dots() == {A1, B2}

    def test_size_accounting_includes_keys(self):
        store = DotMap({"xy": DotSet([A1])})
        assert store.size_units() == 1
        assert store.size_bytes() == 2 + sizes.VECTOR_ENTRY_BYTES

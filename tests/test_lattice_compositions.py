"""Unit tests for composition constructs: product, lexicographic, sum.

Includes the paper's Appendix B counterexample territory: the
lexicographic product is only well-behaved with a chain first component,
which is the form this library implements.
"""

import pytest

from repro import sizes
from repro.lattice import (
    Bool,
    LexPair,
    LinearSum,
    MapLattice,
    MaxInt,
    PairLattice,
    SetLattice,
)


class TestPairLattice:
    def test_componentwise_join(self):
        p = PairLattice(MaxInt(2), MaxInt(3))
        q = PairLattice(MaxInt(5), MaxInt(1))
        assert p.join(q) == PairLattice(MaxInt(5), MaxInt(3))

    def test_leq_requires_both(self):
        p = PairLattice(MaxInt(1), MaxInt(5))
        q = PairLattice(MaxInt(2), MaxInt(4))
        assert not p.leq(q)
        assert not q.leq(p)

    def test_bottom(self):
        p = PairLattice(MaxInt(0), SetLattice())
        assert p.is_bottom
        assert PairLattice(MaxInt(1), SetLattice()).bottom_like() == p

    def test_decompose_embeds_components_with_bottom(self):
        p = PairLattice(MaxInt(2), SetLattice({"a"}))
        parts = list(p.decompose())
        assert PairLattice(MaxInt(2), SetLattice()) in parts
        assert PairLattice(MaxInt(0), SetLattice({"a"})) in parts
        assert len(parts) == 2

    def test_delta_componentwise(self):
        p = PairLattice(MaxInt(5), SetLattice({"a", "b"}))
        q = PairLattice(MaxInt(9), SetLattice({"b"}))
        assert p.delta(q) == PairLattice(MaxInt(0), SetLattice({"a"}))

    def test_size_accounting(self):
        p = PairLattice(MaxInt(5), SetLattice({"ab"}))
        assert p.size_units() == 2
        assert p.size_bytes() == sizes.INT_BYTES + 2


class TestLexPair:
    def test_higher_version_wins_outright(self):
        low = LexPair(MaxInt(1), SetLattice({"x"}))
        high = LexPair(MaxInt(2), SetLattice({"y"}))
        assert low.join(high) == high
        assert high.join(low) == high

    def test_equal_versions_join_payloads(self):
        a = LexPair(MaxInt(2), SetLattice({"x"}))
        b = LexPair(MaxInt(2), SetLattice({"y"}))
        assert a.join(b) == LexPair(MaxInt(2), SetLattice({"x", "y"}))

    def test_lex_order(self):
        assert LexPair(MaxInt(1), SetLattice({"z"})).leq(LexPair(MaxInt(2), SetLattice()))
        assert not LexPair(MaxInt(2), SetLattice()).leq(LexPair(MaxInt(1), SetLattice({"z"})))
        assert LexPair(MaxInt(2), SetLattice({"a"})).leq(LexPair(MaxInt(2), SetLattice({"a", "b"})))

    def test_bottom(self):
        assert LexPair(MaxInt(0), SetLattice()).is_bottom
        assert not LexPair(MaxInt(1), SetLattice()).is_bottom

    def test_decompose_distributes_version(self):
        p = LexPair(MaxInt(3), SetLattice({"a", "b"}))
        parts = sorted(repr(x) for x in p.decompose())
        assert len(parts) == 2
        assert all("MaxInt(3)" in part for part in parts)

    def test_decompose_version_only_state(self):
        p = LexPair(MaxInt(3), SetLattice())
        assert list(p.decompose()) == [p]

    def test_delta_same_version(self):
        mine = LexPair(MaxInt(2), SetLattice({"a", "b"}))
        theirs = LexPair(MaxInt(2), SetLattice({"b"}))
        assert mine.delta(theirs) == LexPair(MaxInt(2), SetLattice({"a"}))

    def test_delta_lower_version_is_bottom(self):
        mine = LexPair(MaxInt(1), SetLattice({"a"}))
        theirs = LexPair(MaxInt(5), SetLattice())
        assert mine.delta(theirs).is_bottom

    def test_delta_higher_version_is_whole_state(self):
        mine = LexPair(MaxInt(5), SetLattice({"a"}))
        theirs = LexPair(MaxInt(1), SetLattice({"b", "c"}))
        assert mine.delta(theirs) == mine

    def test_delta_equal_everything_is_bottom(self):
        p = LexPair(MaxInt(2), SetLattice({"a"}))
        assert p.delta(p).is_bottom


class TestLinearSum:
    def test_left_below_right(self):
        lo = LinearSum.left(MaxInt(99))
        hi = LinearSum.right(Bool(False), left_bottom=MaxInt(0))
        assert lo.leq(hi)
        assert not hi.leq(lo)
        assert lo.join(hi) == hi

    def test_same_side_joins_inner(self):
        a = LinearSum.left(MaxInt(2))
        b = LinearSum.left(MaxInt(5))
        assert a.join(b) == LinearSum.left(MaxInt(5))

    def test_bottom_is_left_bottom(self):
        assert LinearSum.left(MaxInt(0)).is_bottom
        hi = LinearSum.right(Bool(True), left_bottom=MaxInt(0))
        assert not hi.is_bottom
        assert hi.bottom_like() == LinearSum.left(MaxInt(0))

    def test_right_bottom_not_lattice_bottom(self):
        """Right ⊥_B sits above all of A — it carries phase information."""
        hi = LinearSum.right(Bool(False), left_bottom=MaxInt(0))
        assert not hi.is_bottom

    def test_decompose_left(self):
        v = LinearSum.left(MaxInt(3))
        assert list(v.decompose()) == [v]

    def test_decompose_right_bottom_payload(self):
        hi = LinearSum.right(Bool(False), left_bottom=MaxInt(0))
        assert list(hi.decompose()) == [hi]

    def test_delta_across_phases(self):
        lo = LinearSum.left(MaxInt(9))
        hi = LinearSum.right(Bool(True), left_bottom=MaxInt(0))
        assert lo.delta(hi).is_bottom   # everything Left is below Right
        assert hi.delta(lo) == hi       # nothing Right is below Left

    def test_invalid_tag_rejected(self):
        with pytest.raises(ValueError):
            LinearSum("Middle", MaxInt(1), MaxInt(0))

    def test_size_units_right_bottom_counts_one(self):
        hi = LinearSum.right(Bool(False), left_bottom=MaxInt(0))
        assert hi.size_units() == 1


class TestNestedComposition:
    """Deep compositions exercise the recursion in decompose/delta."""

    def test_map_of_pairs_roundtrip(self):
        state = MapLattice(
            {
                "A": PairLattice(MaxInt(2), MaxInt(3)),
                "B": PairLattice(MaxInt(5), MaxInt(5)),
            }
        )
        parts = list(state.decompose())
        assert len(parts) == 4  # the Appendix C PNCounter example
        rejoined = state.bottom_like()
        for part in parts:
            rejoined = rejoined.join(part)
        assert rejoined == state

    def test_pair_of_maps_delta(self):
        mine = PairLattice(
            MapLattice({"x": MaxInt(3)}),
            MapLattice({"y": MaxInt(1)}),
        )
        theirs = PairLattice(
            MapLattice({"x": MaxInt(1)}),
            MapLattice({"y": MaxInt(4)}),
        )
        d = mine.delta(theirs)
        assert d.first == MapLattice({"x": MaxInt(3)})
        assert d.second.is_bottom

    def test_lex_of_map(self):
        a = LexPair(MaxInt(1), MapLattice({"k": SetLattice({"v"})}))
        b = LexPair(MaxInt(1), MapLattice({"k": SetLattice({"w"})}))
        joined = a.join(b)
        assert joined.second == MapLattice({"k": SetLattice({"v", "w"})})

"""Unit tests for SetLattice, MapLattice, and MaxElements."""

from repro import sizes
from repro.lattice import MapLattice, MaxElements, MaxInt, SetLattice


class TestSetLattice:
    def test_join_is_union(self):
        assert SetLattice({"a"}).join(SetLattice({"b"})) == SetLattice({"a", "b"})

    def test_join_with_bottom_returns_other_side(self):
        full = SetLattice({"a"})
        assert full.join(SetLattice()) == full
        assert SetLattice().join(full) == full

    def test_leq_is_subset(self):
        assert SetLattice({"a"}).leq(SetLattice({"a", "b"}))
        assert not SetLattice({"c"}).leq(SetLattice({"a", "b"}))

    def test_bottom(self):
        assert SetLattice().is_bottom
        assert SetLattice({"a"}).bottom_like() == SetLattice()

    def test_decompose_into_singletons(self):
        parts = list(SetLattice({"a", "b", "c"}).decompose())
        assert len(parts) == 3
        assert all(len(p) == 1 for p in parts)
        joined = SetLattice()
        for p in parts:
            joined = joined.join(p)
        assert joined == SetLattice({"a", "b", "c"})

    def test_delta_is_set_difference(self):
        d = SetLattice({"a", "b"}).delta(SetLattice({"b", "c"}))
        assert d == SetLattice({"a"})

    def test_add_returns_same_object_when_present(self):
        s = SetLattice({"a"})
        assert s.add("a") is s
        assert s.add("b") == SetLattice({"a", "b"})

    def test_container_protocol(self):
        s = SetLattice({"a", "b"})
        assert "a" in s
        assert len(s) == 2
        assert sorted(s) == ["a", "b"]

    def test_size_units_counts_elements(self):
        assert SetLattice({"a", "b"}).size_units() == 2

    def test_size_bytes_sums_elements(self):
        assert SetLattice({"ab", "cde"}).size_bytes() == 5

    def test_value_query(self):
        assert SetLattice({"a"}).value() == frozenset({"a"})


class TestMapLattice:
    def test_join_is_pointwise(self):
        a = MapLattice({"x": MaxInt(2), "y": MaxInt(1)})
        b = MapLattice({"y": MaxInt(5), "z": MaxInt(3)})
        joined = a.join(b)
        assert joined == MapLattice({"x": MaxInt(2), "y": MaxInt(5), "z": MaxInt(3)})

    def test_absent_key_is_bottom(self):
        a = MapLattice({"x": MaxInt(1)})
        assert MapLattice().leq(a)
        assert a.get("missing") is None

    def test_constructor_drops_bottom_bindings(self):
        m = MapLattice({"x": MaxInt(0), "y": MaxInt(1)})
        assert "x" not in m
        assert len(m) == 1

    def test_leq(self):
        small = MapLattice({"x": MaxInt(1)})
        big = MapLattice({"x": MaxInt(2), "y": MaxInt(1)})
        assert small.leq(big)
        assert not big.leq(small)

    def test_leq_fails_on_missing_key(self):
        assert not MapLattice({"x": MaxInt(1)}).leq(MapLattice({"y": MaxInt(9)}))

    def test_decompose_recurses_into_values(self):
        m = MapLattice({"x": MaxInt(2), "y": MaxInt(7)})
        parts = sorted(repr(p) for p in m.decompose())
        assert parts == [
            "MapLattice({'x': MaxInt(2)})",
            "MapLattice({'y': MaxInt(7)})",
        ]

    def test_delta_recurses_per_key(self):
        mine = MapLattice({"x": MaxInt(5), "y": MaxInt(1), "z": MaxInt(2)})
        theirs = MapLattice({"x": MaxInt(3), "y": MaxInt(4)})
        d = mine.delta(theirs)
        assert d == MapLattice({"x": MaxInt(5), "z": MaxInt(2)})

    def test_delta_bottom_when_dominated(self):
        small = MapLattice({"x": MaxInt(1)})
        big = MapLattice({"x": MaxInt(2)})
        assert small.delta(big).is_bottom

    def test_size_units_counts_leaf_entries(self):
        m = MapLattice({"x": MaxInt(1), "y": MaxInt(2)})
        assert m.size_units() == 2

    def test_size_units_nested(self):
        m = MapLattice({"x": SetLattice({"a", "b"}), "y": SetLattice({"c"})})
        assert m.size_units() == 3

    def test_size_bytes_counts_keys_and_values(self):
        m = MapLattice({"ab": MaxInt(1)})
        assert m.size_bytes() == 2 + sizes.INT_BYTES

    def test_container_protocol(self):
        m = MapLattice({"x": MaxInt(1)})
        assert "x" in m
        assert len(m) == 1
        assert list(m.keys()) == ["x"]
        assert list(m.items()) == [("x", MaxInt(1))]

    def test_hash_equal_maps(self):
        a = MapLattice({"x": MaxInt(1), "y": MaxInt(2)})
        b = MapLattice({"y": MaxInt(2), "x": MaxInt(1)})
        assert a == b
        assert hash(a) == hash(b)


def _divides(x: int, y: int) -> bool:
    return x % y == 0


class TestMaxElements:
    def test_join_keeps_maximals_only(self):
        a = MaxElements({4}, dominates=_divides)
        b = MaxElements({2, 3}, dominates=_divides)
        assert sorted(a.join(b).elements) == [3, 4]  # 2 absorbed by 4

    def test_constructor_normalizes(self):
        m = MaxElements({2, 4, 8}, dominates=_divides)
        assert sorted(m.elements) == [8]

    def test_leq_by_domination(self):
        small = MaxElements({2}, dominates=_divides)
        big = MaxElements({4}, dominates=_divides)
        assert small.leq(big)
        assert not big.leq(small)

    def test_incomparable_elements_coexist(self):
        m = MaxElements({3, 4}, dominates=_divides)
        assert sorted(m.elements) == [3, 4]

    def test_bottom(self):
        assert MaxElements((), dominates=_divides).is_bottom
        m = MaxElements({4}, dominates=_divides)
        assert m.bottom_like().is_bottom

    def test_decompose_into_singletons(self):
        m = MaxElements({3, 4}, dominates=_divides)
        parts = list(m.decompose())
        assert len(parts) == 2
        assert all(len(p) == 1 for p in parts)

    def test_delta_drops_dominated(self):
        mine = MaxElements({2, 3}, dominates=_divides)
        theirs = MaxElements({4}, dominates=_divides)
        assert sorted(mine.delta(theirs).elements) == [3]

    def test_size_accounting(self):
        m = MaxElements({3, 4}, dominates=_divides)
        assert m.size_units() == 2
        assert m.size_bytes() == 2 * sizes.INT_BYTES

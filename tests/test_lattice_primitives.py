"""Unit tests for the primitive lattices: MaxInt, Chain, Bool."""

import pytest

from repro.lattice import Bool, Chain, MaxInt
from repro.sizes import SizeModel


class TestMaxInt:
    def test_join_takes_maximum(self):
        assert MaxInt(3).join(MaxInt(5)) == MaxInt(5)
        assert MaxInt(5).join(MaxInt(3)) == MaxInt(5)

    def test_join_idempotent(self):
        assert MaxInt(4).join(MaxInt(4)) == MaxInt(4)

    def test_bottom_is_zero(self):
        assert MaxInt(0).is_bottom
        assert not MaxInt(1).is_bottom
        assert MaxInt(9).bottom_like() == MaxInt(0)

    def test_leq_is_numeric_order(self):
        assert MaxInt(2).leq(MaxInt(3))
        assert not MaxInt(3).leq(MaxInt(2))
        assert MaxInt(3).leq(MaxInt(3))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MaxInt(-1)

    def test_decompose_non_bottom_is_self(self):
        assert list(MaxInt(7).decompose()) == [MaxInt(7)]

    def test_decompose_bottom_is_empty(self):
        assert list(MaxInt(0).decompose()) == []

    def test_delta_keeps_only_strictly_higher(self):
        assert MaxInt(5).delta(MaxInt(3)) == MaxInt(5)
        assert MaxInt(3).delta(MaxInt(5)) == MaxInt(0)
        assert MaxInt(3).delta(MaxInt(3)) == MaxInt(0)

    def test_increment_is_inflation(self):
        value = MaxInt(3)
        assert value.leq(value.increment())
        assert value.increment(4) == MaxInt(7)

    def test_increment_rejects_negative(self):
        with pytest.raises(ValueError):
            MaxInt(3).increment(-1)

    def test_size_units(self):
        assert MaxInt(0).size_units() == 0
        assert MaxInt(42).size_units() == 1

    def test_size_bytes(self):
        model = SizeModel()
        assert MaxInt(0).size_bytes(model) == 0
        assert MaxInt(42).size_bytes(model) == model.int_bytes

    def test_hash_consistency(self):
        assert hash(MaxInt(5)) == hash(MaxInt(5))
        assert MaxInt(5) in {MaxInt(5), MaxInt(6)}

    def test_repr(self):
        assert repr(MaxInt(5)) == "MaxInt(5)"


class TestChain:
    def test_join_takes_maximum(self):
        assert Chain(7, bottom=0).join(Chain(3, bottom=0)) == Chain(7, bottom=0)

    def test_generic_over_strings(self):
        low = Chain("apple", bottom="")
        high = Chain("pear", bottom="")
        assert low.join(high) == high
        assert low.leq(high)

    def test_bottom(self):
        assert Chain(0, bottom=0).is_bottom
        assert not Chain(1, bottom=0).is_bottom
        assert Chain(9, bottom=0).bottom_like() == Chain(0, bottom=0)

    def test_value_below_bottom_rejected(self):
        with pytest.raises(ValueError):
            Chain(-1, bottom=0)

    def test_decompose(self):
        assert list(Chain(5, bottom=0).decompose()) == [Chain(5, bottom=0)]
        assert list(Chain(0, bottom=0).decompose()) == []

    def test_delta(self):
        assert Chain(5, bottom=0).delta(Chain(2, bottom=0)) == Chain(5, bottom=0)
        assert Chain(2, bottom=0).delta(Chain(5, bottom=0)).is_bottom

    def test_size_bytes_uses_value(self, size_model):
        assert Chain("abcd", bottom="").size_bytes(size_model) == 4
        assert Chain("", bottom="").size_bytes(size_model) == 0


class TestBool:
    def test_join_is_or(self):
        assert Bool(False).join(Bool(True)) == Bool(True)
        assert Bool(False).join(Bool(False)) == Bool(False)
        assert Bool(True).join(Bool(True)) == Bool(True)

    def test_leq(self):
        assert Bool(False).leq(Bool(True))
        assert not Bool(True).leq(Bool(False))

    def test_bottom(self):
        assert Bool(False).is_bottom
        assert Bool(True).bottom_like() == Bool(False)

    def test_decompose(self):
        assert list(Bool(True).decompose()) == [Bool(True)]
        assert list(Bool(False).decompose()) == []

    def test_delta(self):
        assert Bool(True).delta(Bool(False)) == Bool(True)
        assert Bool(True).delta(Bool(True)) == Bool(False)

    def test_size(self, size_model):
        assert Bool(False).size_units() == 0
        assert Bool(True).size_units() == 1
        assert Bool(True).size_bytes(size_model) == size_model.bool_bytes

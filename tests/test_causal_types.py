"""Semantics of each causal CRDT: conflict policies under concurrency.

Each scenario builds the canonical concurrent shapes — add vs remove,
enable vs disable, write vs write, increment vs reset, update vs key
removal — and checks that the policy named by the type wins after
merging in both directions.  Deltas returned by mutators are also
checked to be exactly what must travel: fresh-dot payloads for
assertions, context-only payloads for retractions.
"""

import pytest

from repro.causal import (
    AWSet,
    Atom,
    CausalMVRegister,
    CCounter,
    DWFlag,
    EWFlag,
    ORMap,
    RWSet,
)


def sync(*replicas):
    """Merge every replica into every other (full exchange)."""
    for left in replicas:
        for right in replicas:
            if left is not right:
                left.merge(right)


# ---------------------------------------------------------------------------
# Flags.
# ---------------------------------------------------------------------------


class TestEWFlag:
    def test_starts_disabled(self):
        assert not EWFlag("A").enabled

    def test_enable_then_disable_locally(self):
        flag = EWFlag("A")
        flag.enable()
        assert flag.enabled
        flag.disable()
        assert not flag.enabled

    def test_concurrent_enable_wins(self):
        a, b = EWFlag("A"), EWFlag("B")
        a.enable()
        b.merge(a)
        b.disable()
        a.enable()  # concurrent with b's disable
        sync(a, b)
        assert a.enabled and b.enabled

    def test_observed_disable_wins_sequentially(self):
        a, b = EWFlag("A"), EWFlag("B")
        a.enable()
        b.merge(a)
        b.disable()
        a.merge(b)
        assert not a.enabled

    def test_disable_delta_is_context_only(self):
        flag = EWFlag("A")
        flag.enable()
        delta = EWFlag.disable(flag.replica, flag.state)
        assert delta.store.is_empty
        assert not delta.context.is_empty

    def test_disable_on_clear_flag_is_noop(self):
        flag = EWFlag("A")
        assert EWFlag.disable(flag.replica, flag.state).is_bottom

    def test_repeated_enables_keep_single_dot(self):
        """Each enable covers the previous one: no dot accumulation."""
        flag = EWFlag("A")
        for _ in range(5):
            flag.enable()
        assert len(flag.state.store.dots()) == 1


class TestDWFlag:
    def test_starts_enabled(self):
        assert DWFlag("A").enabled

    def test_concurrent_disable_wins(self):
        a, b = DWFlag("A"), DWFlag("B")
        a.disable()
        b.merge(a)
        b.enable()
        a.disable()  # concurrent with b's enable
        sync(a, b)
        assert not a.enabled and not b.enabled

    def test_observed_enable_wins_sequentially(self):
        a, b = DWFlag("A"), DWFlag("B")
        a.disable()
        b.merge(a)
        b.enable()
        a.merge(b)
        assert a.enabled


# ---------------------------------------------------------------------------
# Sets.
# ---------------------------------------------------------------------------


class TestAWSet:
    def test_add_then_contains(self):
        s = AWSet("A")
        s.add("x")
        assert "x" in s and s.value == {"x"}

    def test_remove_observed_element(self):
        s = AWSet("A")
        s.add("x")
        s.remove("x")
        assert "x" not in s

    def test_concurrent_add_beats_remove(self):
        a, b = AWSet("A"), AWSet("B")
        a.add("x")
        b.merge(a)
        b.remove("x")
        a.add("x")  # concurrent re-add
        sync(a, b)
        assert "x" in a and "x" in b

    def test_remove_only_affects_observed_adds(self):
        """A removal shipped before seeing a concurrent add spares it."""
        a, b = AWSet("A"), AWSet("B")
        a.add("x")
        removal = AWSet.remove(a.replica, a.state, "x")  # observes only a's add
        b.add("x")  # concurrent
        b.merge(removal)
        assert "x" in b

    def test_remove_unknown_element_is_noop(self):
        s = AWSet("A")
        assert AWSet.remove(s.replica, s.state, "ghost").is_bottom

    def test_removal_delta_carries_no_payload(self):
        s = AWSet("A")
        s.add("x")
        delta = AWSet.remove(s.replica, s.state, "x")
        assert delta.store.is_empty
        assert not delta.context.is_empty

    def test_re_add_after_remove_uses_fresh_dot(self):
        s = AWSet("A")
        s.add("x")
        s.remove("x")
        s.add("x")
        assert "x" in s
        assert len(s.state.store.dots()) == 1

    def test_clear_empties_set(self):
        s = AWSet("A")
        for e in ("x", "y", "z"):
            s.add(e)
        s.clear()
        assert len(s) == 0

    def test_clear_spares_concurrent_adds(self):
        a, b = AWSet("A"), AWSet("B")
        a.add("x")
        b.merge(a)
        clearing = AWSet.clear(b.replica, b.state)
        a.add("y")  # concurrent with the clear
        a.merge(clearing)
        assert a.value == {"y"}

    def test_iteration_and_len(self):
        s = AWSet("A")
        s.add("x")
        s.add("y")
        assert sorted(s) == ["x", "y"]
        assert len(s) == 2

    def test_removed_elements_do_not_grow_state(self):
        """Churn leaves the context compact and the store small."""
        s = AWSet("A")
        for i in range(50):
            s.add(f"e{i}")
            s.remove(f"e{i}")
        assert len(s) == 0
        assert s.state.store.is_empty
        assert s.state.context.size_units() == 1  # one compact vector entry


class TestRWSet:
    def test_add_then_contains(self):
        s = RWSet("A")
        s.add("x")
        assert "x" in s

    def test_remove_observed_element(self):
        s = RWSet("A")
        s.add("x")
        s.remove("x")
        assert "x" not in s

    def test_concurrent_remove_beats_add(self):
        a, b = RWSet("A"), RWSet("B")
        a.add("x")
        b.merge(a)
        b.remove("x")
        a.add("x")  # concurrent re-add
        sync(a, b)
        assert "x" not in a and "x" not in b

    def test_add_after_observed_remove_restores(self):
        a, b = RWSet("A"), RWSet("B")
        a.add("x")
        b.merge(a)
        b.remove("x")
        a.merge(b)
        a.add("x")  # has observed the removal: supersedes it
        b.merge(a)
        assert "x" in a and "x" in b

    def test_value_iteration(self):
        s = RWSet("A")
        s.add("x")
        s.add("y")
        s.remove("y")
        assert s.value == {"x"}
        assert len(s) == 1


# ---------------------------------------------------------------------------
# Registers.
# ---------------------------------------------------------------------------


class TestCausalMVRegister:
    def test_unwritten_reads_empty(self):
        assert CausalMVRegister("A").values == frozenset()

    def test_write_then_read(self):
        r = CausalMVRegister("A")
        r.write("v1")
        assert r.values == {"v1"}

    def test_concurrent_writes_both_survive(self):
        a, b = CausalMVRegister("A"), CausalMVRegister("B")
        a.write(1)
        b.write(2)
        sync(a, b)
        assert a.values == {1, 2} and b.values == {1, 2}

    def test_covering_write_collapses_siblings(self):
        a, b = CausalMVRegister("A"), CausalMVRegister("B")
        a.write(1)
        b.write(2)
        a.merge(b)
        a.write(3)  # observed both siblings
        b.merge(a)
        assert b.values == {3}

    def test_sequential_write_supersedes(self):
        r = CausalMVRegister("A")
        r.write("old")
        r.write("new")
        assert r.values == {"new"}

    def test_none_is_a_legal_payload(self):
        r = CausalMVRegister("A")
        r.write(None)
        assert r.values == {None}

    def test_sequential_writes_keep_one_dot(self):
        r = CausalMVRegister("A")
        r.write("one")
        r.write("two")
        r.write("three")
        assert r.values == {"three"}
        assert len(r.state.store) == 1

    def test_three_way_exchange_converges(self):
        a, b, c = (CausalMVRegister(name) for name in "ABC")
        a.write("x")
        b.write("y")
        c.write("z")
        sync(a, b, c)
        assert a.state == b.state == c.state
        assert a.values == {"x", "y", "z"}


class TestAtom:
    def test_join_of_equal_atoms(self):
        assert Atom(5).join(Atom(5)) == Atom(5)

    def test_join_with_bottom(self):
        assert Atom().join(Atom(5)) == Atom(5)
        assert Atom(5).join(Atom()) == Atom(5)

    def test_join_of_distinct_atoms_raises(self):
        with pytest.raises(ValueError, match="distinct atoms"):
            Atom(1).join(Atom(2))

    def test_order_and_delta(self):
        assert Atom().leq(Atom(1))
        assert not Atom(1).leq(Atom(2))
        assert Atom(1).delta(Atom(1)).is_bottom
        assert Atom(1).delta(Atom()) == Atom(1)


# ---------------------------------------------------------------------------
# Counter.
# ---------------------------------------------------------------------------


class TestCCounter:
    def test_increments_accumulate(self):
        c = CCounter("A")
        c.increment()
        c.increment(4)
        assert c.value == 5

    def test_increment_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            CCounter("A").increment(0)

    def test_concurrent_increments_sum(self):
        a, b = CCounter("A"), CCounter("B")
        a.increment(2)
        b.increment(3)
        sync(a, b)
        assert a.value == 5 and b.value == 5

    def test_reset_zeroes_observed(self):
        a, b = CCounter("A"), CCounter("B")
        a.increment(7)
        b.merge(a)
        b.reset()
        a.merge(b)
        assert a.value == 0

    def test_unobserved_increment_survives_reset(self):
        a, b, c = CCounter("A"), CCounter("B"), CCounter("C")
        a.increment(3)
        b.merge(a)
        b.reset()
        c.increment(2)  # never observed by the reset
        a.merge(b)
        a.merge(c)
        assert a.value == 2

    def test_per_replica_state_stays_single_dot(self):
        c = CCounter("A")
        for _ in range(10):
            c.increment()
        assert len(c.state.store.dots()) == 1
        assert c.value == 10

    def test_reset_on_zero_counter_is_noop(self):
        c = CCounter("A")
        assert CCounter.reset(c.replica, c.state).is_bottom


# ---------------------------------------------------------------------------
# OR-Map.
# ---------------------------------------------------------------------------


class TestORMap:
    def _fresh(self, name):
        """An OR-map of AW-set values for replica ``name``."""
        return ORMap(name)

    def test_update_creates_key(self):
        m = self._fresh("A")
        m.update("cart", AWSet, "add", "milk")
        assert "cart" in m
        view = AWSet("A", m.value_view("cart", AWSet))
        assert "milk" in view

    def test_remove_erases_observed_key(self):
        m = self._fresh("A")
        m.update("cart", AWSet, "add", "milk")
        m.remove("cart")
        assert "cart" not in m

    def test_remove_unknown_key_is_noop(self):
        m = self._fresh("A")
        assert ORMap.remove(m.replica, m.state, "ghost").is_bottom

    def test_concurrent_update_survives_key_removal(self):
        a, b = self._fresh("A"), self._fresh("B")
        a.update("cart", AWSet, "add", "milk")
        b.merge(a)
        removal = ORMap.remove(b.replica, b.state, "cart")
        a.update("cart", AWSet, "add", "eggs")
        a.merge(removal)
        view = AWSet("A", a.value_view("cart", AWSet))
        assert view.value == {"eggs"}  # milk was observed by the removal

    def test_nested_register_values(self):
        m = ORMap("A")
        m.update("bio", CausalMVRegister, "write", "hello")
        values = {atom.value for atom in m.value_view("bio", CausalMVRegister).store.values()}
        assert values == {"hello"}

    def test_clear_covers_every_key(self):
        m = self._fresh("A")
        for key in ("one", "two"):
            m.update(key, AWSet, "add", "v")
        m.clear()
        assert len(m) == 0

    def test_keys_iteration(self):
        m = self._fresh("A")
        m.update("k1", AWSet, "add", "v")
        m.update("k2", AWSet, "add", "v")
        assert sorted(m) == ["k1", "k2"]
        assert m.keys() == {"k1", "k2"}

    def test_update_with_noop_mutator_is_bottom(self):
        m = self._fresh("A")
        delta = ORMap.update(m.replica, m.state, "cart", AWSet, "remove", "ghost")
        assert delta.is_bottom

    def test_dot_namespaces_do_not_collide_across_keys(self):
        """Sequential updates on different keys draw distinct dots."""
        m = self._fresh("A")
        m.update("k1", AWSet, "add", "v")
        m.update("k2", AWSet, "add", "v")
        assert len(m.state.store.dots()) == 2

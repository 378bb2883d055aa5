"""Unit tests for GCounter and PNCounter, and the counting δ-mutators'
shared argument check."""

import pytest

from repro.causal import CCounter
from repro.crdt import BCounter, GCounter, PNCounter
from repro.kv import TypeSpec
from repro.lattice import MapLattice, MaxInt, PairLattice


class TestGCounter:
    def test_initial_value_is_zero(self):
        assert GCounter("A").value == 0

    def test_increment(self):
        counter = GCounter("A")
        counter.increment()
        counter.increment()
        assert counter.value == 2
        assert counter.entry("A") == 2

    def test_increment_by(self):
        counter = GCounter("A")
        counter.increment(by=5)
        assert counter.value == 5

    def test_increment_rejects_non_positive(self):
        with pytest.raises(ValueError):
            GCounter("A").increment(0)
        with pytest.raises(ValueError):
            GCounter("A").increment(-3)

    def test_delta_is_single_entry(self):
        """incδ returns only the updated entry (Figure 2a)."""
        counter = GCounter("A")
        counter.increment()
        counter.increment()
        delta = counter.increment()
        assert delta == MapLattice({"A": MaxInt(3)})
        assert delta.size_units() == 1

    def test_merge_concurrent_increments(self):
        a, b = GCounter("A"), GCounter("B")
        a.increment(); a.increment()
        b.increment(); b.increment(); b.increment()
        a.merge(b)
        b.merge(a)
        assert a.value == b.value == 5
        assert a.state == b.state

    def test_merge_is_idempotent(self):
        a, b = GCounter("A"), GCounter("B")
        a.increment(); b.increment()
        a.merge(b); a.merge(b); a.merge(b)
        assert a.value == 2

    def test_join_takes_entrywise_max(self):
        """Merging stale copies never double counts."""
        a = GCounter("A")
        a.increment(); a.increment()
        stale = GCounter("B", state=a.state)  # copy of A's state
        a.increment()
        a.merge(stale)
        assert a.value == 3

    def test_diff_between_replicas(self):
        a, b = GCounter("A"), GCounter("B")
        a.increment(by=4)
        b.increment(by=2)
        missing = a.diff(b.state)
        assert missing == MapLattice({"A": MaxInt(4)})
        b.merge(missing)
        assert b.value == 6

    def test_mutator_delta_duality(self):
        """m(x) = x ⊔ mδ(x) — the delta-CRDT defining equation."""
        counter = GCounter("A")
        counter.increment(); counter.increment()
        before = counter.state
        delta = GCounter.increment("A", before)
        assert before.join(delta) == MapLattice({"A": MaxInt(3)})

    def test_bottom(self):
        assert GCounter.bottom().is_bottom


class TestPNCounter:
    def test_increment_and_decrement(self):
        c = PNCounter("A")
        c.increment(5)
        c.decrement(2)
        assert c.value == 3

    def test_value_can_go_negative(self):
        c = PNCounter("A")
        c.decrement(4)
        assert c.value == -4

    def test_rejects_non_positive_amounts(self):
        with pytest.raises(ValueError):
            PNCounter("A").increment(0)
        with pytest.raises(ValueError):
            PNCounter("A").decrement(-1)

    def test_concurrent_inc_dec_converge(self):
        a, b = PNCounter("A"), PNCounter("B")
        a.increment(10)
        b.decrement(3)
        a.merge(b); b.merge(a)
        assert a.value == b.value == 7
        assert a.state == b.state

    def test_delta_isolates_inc_or_dec(self):
        c = PNCounter("A")
        c.increment(2)
        delta = c.decrement(3)
        assert delta == MapLattice({"A": PairLattice(MaxInt(0), MaxInt(3))})

    def test_tallies(self):
        c = PNCounter("A")
        c.increment(2); c.decrement(1)
        assert c.tallies("A") == (2, 1)
        assert c.tallies("ghost") == (0, 0)

    def test_appendix_c_decomposition_shape(self):
        """The PNCounter state decomposes per Appendix C."""
        a = PNCounter("A")
        a.increment(2); a.decrement(3)
        b = PNCounter("B", state=a.state)
        b.increment(5); b.decrement(5)
        parts = list(b.state.decompose())
        assert len(parts) == 4

    def test_merge_idempotent_commutative(self):
        a, b = PNCounter("A"), PNCounter("B")
        a.increment(1)
        b.decrement(2)
        ab = PNCounter("X", state=a.state)
        ab.merge(b)
        ba = PNCounter("Y", state=b.state)
        ba.merge(a)
        assert ab.state == ba.state


#: Every counting δ-mutator: (type, op, extra arguments after the amount).
COUNTING = [
    (GCounter, "increment", ()),
    (PNCounter, "increment", ()),
    (PNCounter, "decrement", ()),
    (CCounter, "increment", ()),
    (BCounter, "increment", ()),
    (BCounter, "decrement", ()),
    (BCounter, "transfer", ("B",)),
]


@pytest.mark.parametrize("amount", [0, -1])
@pytest.mark.parametrize(
    "crdt,op,extra", COUNTING, ids=[f"{c.__name__}.{op}" for c, op, _ in COUNTING]
)
def test_counting_delta_mutators_reject_non_positive_amounts(crdt, op, extra, amount):
    """A δ for ``by ≤ 0`` would be ⊥ or a dominated entry, never optimal.

    The check lives in the δ-mutator itself, so it holds however the
    δ-mutator is reached: called directly, or through ``TypeSpec.apply``
    as the key-value store calls it.  The state already holds an entry
    for the writer (and rights to spend), so a skipped check would
    return a non-bottom δ instead of raising.
    """
    seeded = crdt("A")
    seeded.increment(3)
    with pytest.raises(ValueError, match="must be positive"):
        getattr(crdt, op)("A", seeded.state, amount, *extra)
    spec = TypeSpec(crdt.__name__.lower(), crdt, crdt.value)
    with pytest.raises(ValueError, match="must be positive"):
        spec.apply("A", seeded.state, op, amount, *extra)

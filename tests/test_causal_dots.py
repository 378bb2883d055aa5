"""Unit and property tests for dots and causal contexts.

The causal context is the foundation every observed-remove type rests
on: normalization must be canonical (equality is structural), and the
compact-vector-plus-cloud representation must answer containment,
union, difference, and fresh-dot queries exactly as the plain set of
dots would.
"""

from hypothesis import given, strategies as st

from repro import sizes
from repro.causal import CausalContext, Dot

REPLICAS = ["A", "B", "C"]

dots = st.tuples(st.sampled_from(REPLICAS), st.integers(min_value=1, max_value=8)).map(
    lambda t: Dot(*t)
)
dot_sets = st.frozensets(dots, max_size=12)
contexts = dot_sets.map(CausalContext.from_dots)


# ---------------------------------------------------------------------------
# Normalization and canonical form.
# ---------------------------------------------------------------------------


def test_contiguous_dots_compact_into_vector():
    cc = CausalContext.from_dots([Dot("A", 1), Dot("A", 2), Dot("A", 3)])
    assert cc.compact == {"A": 3}
    assert not cc.cloud


def test_gap_keeps_dot_in_cloud():
    cc = CausalContext.from_dots([Dot("A", 1), Dot("A", 3)])
    assert cc.compact == {"A": 1}
    assert cc.cloud == {Dot("A", 3)}


def test_filling_gap_absorbs_cloud():
    cc = CausalContext.from_dots([Dot("A", 1), Dot("A", 3)])
    filled = cc.add(Dot("A", 2))
    assert filled.compact == {"A": 3}
    assert not filled.cloud


def test_cloud_dot_below_vector_is_dropped():
    cc = CausalContext({"A": 5}, cloud=[Dot("A", 3)])
    assert cc.compact == {"A": 5}
    assert not cc.cloud


def test_zero_vector_entries_are_dropped():
    cc = CausalContext({"A": 0, "B": 2})
    assert cc.compact == {"B": 2}


@given(dot_sets)
def test_from_dots_roundtrip(dotset):
    cc = CausalContext.from_dots(dotset)
    assert frozenset(cc.dots()) == dotset


@given(dot_sets)
def test_normalization_is_canonical(dotset):
    """Any construction order yields the same representation."""
    one_by_one = CausalContext()
    for dot in sorted(dotset, reverse=True):
        one_by_one = one_by_one.add(dot)
    batch = CausalContext.from_dots(dotset)
    assert one_by_one == batch
    assert hash(one_by_one) == hash(batch)


# ---------------------------------------------------------------------------
# Queries.
# ---------------------------------------------------------------------------


@given(dot_sets, dots)
def test_contains_matches_set_membership(dotset, dot):
    cc = CausalContext.from_dots(dotset)
    assert cc.contains(dot) == (dot in dotset)


@given(dot_sets)
def test_dot_count_matches_enumeration(dotset):
    cc = CausalContext.from_dots(dotset)
    assert cc.dot_count() == len(dotset)


@given(dot_sets, st.sampled_from(REPLICAS))
def test_next_dot_is_fresh_and_minimal(dotset, replica):
    cc = CausalContext.from_dots(dotset)
    nxt = cc.next_dot(replica)
    assert nxt.replica == replica
    assert not cc.contains(nxt)
    counters = [d.counter for d in dotset if d.replica == replica]
    assert nxt.counter == (max(counters) + 1 if counters else 1)


def test_next_dot_skips_past_cloud():
    """A cloud dot above the vector still reserves its counter."""
    cc = CausalContext.from_dots([Dot("A", 1), Dot("A", 5)])
    assert cc.next_dot("A") == Dot("A", 6)


# ---------------------------------------------------------------------------
# Union, subtraction, and order.
# ---------------------------------------------------------------------------


@given(dot_sets, dot_sets)
def test_union_is_set_union(left, right):
    merged = CausalContext.from_dots(left).union(CausalContext.from_dots(right))
    assert frozenset(merged.dots()) == left | right


@given(dot_sets, dot_sets)
def test_subtract_is_set_difference(left, right):
    cc_left = CausalContext.from_dots(left)
    cc_right = CausalContext.from_dots(right)
    assert frozenset(cc_left.subtract(cc_right)) == left - right


@given(dot_sets, dot_sets)
def test_leq_is_subset(left, right):
    cc_left = CausalContext.from_dots(left)
    cc_right = CausalContext.from_dots(right)
    assert cc_left.leq(cc_right) == (left <= right)


@given(contexts, contexts, contexts)
def test_union_laws(x, y, z):
    assert x.union(x) == x
    assert x.union(y) == y.union(x)
    assert x.union(y.union(z)) == x.union(y).union(z)
    assert x.leq(x.union(y))


# ---------------------------------------------------------------------------
# Size accounting.
# ---------------------------------------------------------------------------


def test_size_counts_vector_entries_and_cloud_dots():
    cc = CausalContext.from_dots([Dot("A", 1), Dot("A", 2), Dot("B", 3)])
    # A compacts to one vector entry; B3 stays in the cloud.
    assert cc.size_units() == 2
    assert cc.size_bytes() == 2 * sizes.VECTOR_ENTRY_BYTES


def test_empty_context_is_free():
    assert CausalContext().size_units() == 0
    assert CausalContext().is_empty

"""Property-based tests that only causal states have to pass.

States are generated the only way causal states can exist in practice:
by running random operation interleavings (adds, removes, writes,
merges) over a small group of replicas (``conftest.causal_states``).
Every state drawn this way is reachable, satisfies the store⊆context
invariant, and — because merges are included — exhibits the concurrent
add/remove shapes that make the causal order subtle.

The Section III contract every lattice meets (the join-semilattice
laws, the order, Definitions 1–3 and the two properties of ``∆``) runs
over the same causal families in ``test_lattice_properties.py``.  What
is left here is causal: the invariant survives joins, ``∆`` carries the
removals the other side still holds live, and ``∆`` against an upper
bound and the hash of a rebuilt join behave on dot stores.
"""

from hypothesis import given

from conftest import causal_states


@given(causal_states(n=2))
def test_join_preserves_invariant(pair):
    x, y = pair
    x.join(y).check_invariant()


@given(causal_states(n=2))
def test_delta_of_leq_state_is_bottom(pair):
    a, b = pair
    joined = a.join(b)
    assert a.delta(joined).is_bottom
    assert b.delta(joined).is_bottom


@given(causal_states(n=2))
def test_delta_tombstones_kill_live_remote_dots(pair):
    """∆ must carry removals the other side still holds live.

    This is the subtle case: a tombstone dot is redundant only when the
    other side has seen *and removed* it.  A delta that omitted these
    would resurrect removed elements during anti-entropy.
    """
    a, b = pair
    d = a.delta(b)
    merged = d.join(b)
    for dot in b.store.dots():
        held_live_after = dot in merged.store.dots()
        removed_by_a = a.context.contains(dot) and dot not in a.store.dots()
        if removed_by_a:
            assert not held_live_after


@given(causal_states(n=2))
def test_equal_states_hash_equal(pair):
    """States are dict keys in δ-buffers: equal joins must hash equal."""
    x, y = pair
    merged_one = x.join(y)
    merged_two = y.join(x)
    assert merged_one == merged_two
    assert hash(merged_one) == hash(merged_two)

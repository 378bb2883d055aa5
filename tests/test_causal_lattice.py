"""Property-based tests for the causal lattice.

States are generated the only way causal states can exist in practice:
by running random operation interleavings (adds, removes, writes,
merges) over a small group of replicas.  Every state drawn this way is
reachable, satisfies the store⊆context invariant, and — because merges
are included — exhibits the concurrent add/remove shapes that make the
causal order subtle.

Against such states we check the full Section III contract: the
join-semilattice laws, the derived partial order, decomposition
validity (Definitions 1–3), the two defining properties of ``∆``, and
the agreement of the optimized ``delta``/``leq`` fast paths with the
generic definitions they shortcut.
"""

from hypothesis import given, settings, strategies as st

from repro.causal import AWSet, Causal, CausalMVRegister, CCounter, EWFlag, RWSet
from repro.lattice.base import join_all
from repro.lattice.decompose import (
    is_irredundant_decomposition,
    is_join_irreducible,
)

REPLICAS = ("A", "B", "C")
ELEMENTS = ("x", "y", "z")


def _execute(crdt_cls, ops):
    """Run an operation script over three replicas; return all states seen."""
    replicas = {name: crdt_cls(name) for name in REPLICAS}
    pool = [replicas["A"].state]  # bottom
    for op in ops:
        kind = op[0]
        if kind == "merge":
            _, src, dst = op
            replicas[dst].merge(replicas[src])
        elif kind == "add":
            _, name, element = op
            replicas[name].add(element)
        elif kind == "remove":
            _, name, element = op
            replicas[name].remove(element)
        elif kind == "write":
            _, name, element = op
            replicas[name].write(element)
        elif kind == "increment":
            _, name, _ = op
            replicas[name].increment()
        elif kind == "reset":
            _, name, _ = op
            replicas[name].reset()
        pool.append(replicas[op[1]].state)
    return pool


def _ops(kinds):
    return st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(kinds),
                st.sampled_from(REPLICAS),
                st.sampled_from(ELEMENTS),
            ),
            st.tuples(
                st.just("merge"),
                st.sampled_from(REPLICAS),
                st.sampled_from(REPLICAS),
            ),
        ),
        min_size=0,
        max_size=14,
    )


@st.composite
def causal_states(draw, n=1):
    """Draw ``n`` reachable causal states from one random execution."""
    family = draw(st.sampled_from(["awset", "rwset", "ewflag", "mvreg", "ccounter"]))
    if family == "awset":
        pool = _execute(AWSet, draw(_ops(("add", "remove"))))
    elif family == "rwset":
        pool = _execute(RWSet, draw(_ops(("add", "remove"))))
    elif family == "ewflag":

        class _Flag(EWFlag):
            def add(self, _):
                self.enable()

            def remove(self, _):
                self.disable()

        pool = _execute(_Flag, draw(_ops(("add", "remove"))))
    elif family == "mvreg":

        class _Reg(CausalMVRegister):
            pass

        pool = _execute(_Reg, draw(_ops(("write",))))
    else:
        pool = _execute(CCounter, draw(_ops(("increment", "reset"))))
    picks = [draw(st.sampled_from(pool)) for _ in range(n)]
    return picks[0] if n == 1 else tuple(picks)


def _generic_delta(a: Causal, b: Causal) -> Causal:
    """``∆`` computed literally from the decomposition (Section III-B)."""
    acc = a.bottom_like()
    for irreducible in a.decompose():
        if not irreducible.leq(b):
            acc = acc.join(irreducible)
    return acc


# ---------------------------------------------------------------------------
# Join-semilattice laws.
# ---------------------------------------------------------------------------


@given(causal_states())
def test_join_idempotent(x):
    assert x.join(x) == x


@given(causal_states(n=2))
def test_join_commutative(pair):
    x, y = pair
    assert x.join(y) == y.join(x)


@given(causal_states(n=3))
def test_join_associative(triple):
    x, y, z = triple
    assert x.join(y).join(z) == x.join(y.join(z))


@given(causal_states())
def test_bottom_is_identity(x):
    bottom = x.bottom_like()
    assert bottom.join(x) == x
    assert bottom.is_bottom


@given(causal_states(n=2))
def test_join_is_least_upper_bound(pair):
    x, y = pair
    joined = x.join(y)
    assert x.leq(joined) and y.leq(joined)


@given(causal_states(n=2))
def test_leq_agrees_with_join_definition(pair):
    """The optimized order must equal ``x ⊑ y ⇔ x ⊔ y = y``."""
    x, y = pair
    assert x.leq(y) == (x.join(y) == y)


@given(causal_states(n=2))
def test_join_preserves_invariant(pair):
    x, y = pair
    x.join(y).check_invariant()


# ---------------------------------------------------------------------------
# Decompositions (Definitions 1–3 of the paper).
# ---------------------------------------------------------------------------


@given(causal_states())
def test_decomposition_joins_back(x):
    assert join_all(x.decompose(), x.bottom_like()) == x


@given(causal_states())
def test_decomposition_parts_are_join_irreducible(x):
    for part in x.decompose():
        assert is_join_irreducible(part)
        assert not part.is_bottom


@given(causal_states())
@settings(max_examples=60)
def test_decomposition_is_irredundant(x):
    assert is_irredundant_decomposition(list(x.decompose()), x)


@given(causal_states())
def test_bottom_decomposes_to_nothing(x):
    assert list(x.bottom_like().decompose()) == []


@given(causal_states())
def test_one_object_decomposes_in_one_order(x):
    """The ordering promise of ``Lattice.decompose``, over dot stores."""
    assert list(x.decompose()) == list(x.decompose())


# ---------------------------------------------------------------------------
# Optimal deltas.
# ---------------------------------------------------------------------------


@given(causal_states(n=2))
def test_delta_joined_with_b_gives_a_join_b(pair):
    a, b = pair
    assert a.delta(b).join(b) == a.join(b)


@given(causal_states(n=2))
def test_delta_matches_generic_definition(pair):
    """The store-recursive fast path equals the decompose-and-filter ∆."""
    a, b = pair
    assert a.delta(b) == _generic_delta(a, b)


@given(causal_states(n=2))
def test_delta_is_minimal(pair):
    """Any c with c ⊔ b = a ⊔ b sits above ∆(a, b) — here c = a itself."""
    a, b = pair
    assert a.delta(b).leq(a)


@given(causal_states(n=2))
def test_delta_of_leq_state_is_bottom(pair):
    a, b = pair
    joined = a.join(b)
    assert a.delta(joined).is_bottom
    assert b.delta(joined).is_bottom


@given(causal_states())
def test_delta_against_bottom_is_identity(x):
    assert x.delta(x.bottom_like()) == x


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


# ---------------------------------------------------------------------------
# Hash/equality consistency (states are dict keys in δ-buffers).
# ---------------------------------------------------------------------------


@given(causal_states(n=2))
def test_equal_states_hash_equal(pair):
    x, y = pair
    merged_one = x.join(y)
    merged_two = y.join(x)
    assert merged_one == merged_two
    assert hash(merged_one) == hash(merged_two)

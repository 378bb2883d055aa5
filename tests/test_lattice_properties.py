"""Property-based tests: lattice laws and decomposition theory.

Hypothesis drives every lattice construct in the library through the
join-semilattice axioms, the derived partial order, the decomposition
definitions of Section III (existence, uniqueness via canonical
reprs, irredundancy), and the two defining properties of the optimal
delta ``∆`` — the foundation the RR optimization rests on.
"""

from hypothesis import given, settings, strategies as st

from repro.lattice import is_irredundant_decomposition, is_join_irreducible, join_all

from conftest import ALL_LATTICE_STRATEGIES, CAUSAL_EXECUTIONS, lattice_lists


def pairs_from(family: str):
    return lattice_lists(family, min_size=2, max_size=2).map(tuple)


def triples_from(family: str):
    return lattice_lists(family, min_size=3, max_size=3).map(tuple)


family_and_pair = st.sampled_from(sorted(ALL_LATTICE_STRATEGIES)).flatmap(
    lambda fam: st.tuples(st.just(fam), pairs_from(fam))
)
family_and_triple = st.sampled_from(sorted(ALL_LATTICE_STRATEGIES)).flatmap(
    lambda fam: st.tuples(st.just(fam), triples_from(fam))
)
family_and_value = st.sampled_from(sorted(ALL_LATTICE_STRATEGIES)).flatmap(
    lambda fam: st.tuples(st.just(fam), ALL_LATTICE_STRATEGIES[fam])
)


# ---------------------------------------------------------------------------
# Join-semilattice laws.
# ---------------------------------------------------------------------------


@given(family_and_value)
def test_join_idempotent(case):
    _, x = case
    assert x.join(x) == x


@given(family_and_pair)
def test_join_commutative(case):
    _, (x, y) = case
    assert x.join(y) == y.join(x)


@given(family_and_triple)
def test_join_associative(case):
    _, (x, y, z) = case
    assert x.join(y).join(z) == x.join(y.join(z))


@given(family_and_value)
def test_bottom_is_identity(case):
    _, x = case
    bottom = x.bottom_like()
    assert bottom.join(x) == x
    assert x.join(bottom) == x
    assert bottom.is_bottom


@given(family_and_pair)
def test_join_is_upper_bound(case):
    _, (x, y) = case
    joined = x.join(y)
    assert x.leq(joined)
    assert y.leq(joined)


@given(family_and_pair)
def test_leq_agrees_with_join(case):
    """x ⊑ y ⇔ x ⊔ y = y — the paper's definition of the order."""
    _, (x, y) = case
    assert x.leq(y) == (x.join(y) == y)


@given(family_and_pair)
def test_leq_antisymmetric(case):
    _, (x, y) = case
    if x.leq(y) and y.leq(x):
        assert x == y


@given(family_and_triple)
def test_leq_transitive(case):
    _, (x, y, z) = case
    if x.leq(y) and y.leq(z):
        assert x.leq(z)


# ---------------------------------------------------------------------------
# Decomposition properties (Definitions 1-3, Proposition 2).
# ---------------------------------------------------------------------------


@given(family_and_value)
def test_decomposition_joins_back(case):
    """⊔⇓x = x (Definition 2)."""
    _, x = case
    assert join_all(x.decompose(), x.bottom_like()) == x


@given(family_and_value)
def test_decomposition_parts_are_join_irreducible(case):
    _, x = case
    for part in x.decompose():
        assert is_join_irreducible(part), f"{part!r} not join-irreducible"


@given(family_and_value)
@settings(max_examples=60)
def test_decomposition_is_irredundant(case):
    """No element of ⇓x may be dropped (Definition 3)."""
    _, x = case
    parts = list(x.decompose())
    assert is_irredundant_decomposition(parts, x)


@given(family_and_value)
def test_bottom_decomposes_to_nothing(case):
    _, x = case
    assert list(x.bottom_like().decompose()) == []


@given(family_and_value)
def test_decomposition_parts_below_state(case):
    """⇓x ⊆ {r | r ⊑ x} (Proposition 2)."""
    _, x = case
    for part in x.decompose():
        assert part.leq(x)


@given(family_and_value)
def test_one_object_decomposes_in_one_order(case):
    """``Lattice.decompose``'s ordering promise: asked twice, one value
    object yields its irreducibles in the same positions — what lets
    ``IncrementalDigest.missing`` pair them with cached fingerprints."""
    _, x = case
    assert list(x.decompose()) == list(x.decompose())


# ---------------------------------------------------------------------------
# Optimal delta properties (Section III-B).
# ---------------------------------------------------------------------------


@given(family_and_pair)
def test_delta_join_recovers_join(case):
    """∆(a, b) ⊔ b = a ⊔ b."""
    _, (a, b) = case
    assert a.delta(b).join(b) == a.join(b)


@given(family_and_pair)
def test_delta_below_a(case):
    _, (a, b) = case
    assert a.delta(b).leq(a)


@given(family_and_pair)
def test_delta_bottom_iff_leq(case):
    """∆(a, b) = ⊥ exactly when a ⊑ b."""
    _, (a, b) = case
    assert a.delta(b).is_bottom == a.leq(b)


@given(family_and_pair)
def test_delta_matches_decomposition_definition(case):
    """∆(a, b) = ⊔{y ∈ ⇓a | y ⋢ b} — fast paths equal the definition."""
    _, (a, b) = case
    by_definition = join_all(
        (y for y in a.decompose() if not y.leq(b)), a.bottom_like()
    )
    assert a.delta(b) == by_definition


@given(family_and_pair)
def test_delta_minimality_against_irreducibles(case):
    """Every irreducible of ∆(a,b) is an irreducible of a not below b.

    Together with the join property this is exactly the minimality
    claim: ∆ contains nothing that b already covers.
    """
    _, (a, b) = case
    d = a.delta(b)
    for part in d.decompose():
        assert not part.leq(b)


@given(family_and_value)
def test_delta_with_self_is_bottom(case):
    _, a = case
    assert a.delta(a).is_bottom


@given(family_and_value)
def test_delta_with_bottom_is_self(case):
    _, a = case
    assert a.delta(a.bottom_like()) == a


# ---------------------------------------------------------------------------
# Size accounting sanity.
# ---------------------------------------------------------------------------


@given(family_and_value)
def test_size_units_equals_decomposition_size_for_flat_types(case):
    """Units equal the irreducible count (the paper's element metric)."""
    family, x = case
    if family in ("LexPair", "LinearSum"):
        return  # phase markers legitimately diverge from irreducible count
    if family in CAUSAL_EXECUTIONS:
        return  # a live dot is a store entry and a context entry: both cross the wire
    assert x.size_units() == len(list(x.decompose()))


@given(family_and_value)
def test_size_bytes_non_negative_and_bottom_free(case):
    _, x = case
    assert x.size_bytes() >= 0
    assert x.bottom_like().size_bytes() == 0


@given(family_and_pair)
def test_join_never_shrinks_units(case):
    family, (a, b) = case
    if family in ("LexPair", "LinearSum", "MaxElements"):
        # These joins legitimately discard dominated content outright.
        return
    if family in CAUSAL_EXECUTIONS:
        return  # a removal's context covers live dots, and the join drops them
    assert a.join(b).size_units() >= max(a.size_units(), b.size_units())


@given(family_and_value)
def test_hash_equality_contract(case):
    _, x = case
    same = x.join(x.bottom_like())
    assert same == x
    assert hash(same) == hash(x)

"""Tests for join decompositions and optimal deltas — paper Section III.

The concrete cases reproduce the paper's worked examples verbatim:
Example 1 (join-irreducible states), Example 2 (tentative
decompositions of a GCounter and a GSet state), and the Appendix C
PNCounter decomposition.
"""

from repro.lattice import (
    MapLattice,
    MaxInt,
    PairLattice,
    SetLattice,
    decomposition,
    delta,
    is_irredundant_decomposition,
    is_join_decomposition,
    is_join_irreducible,
)


def gcounter(**entries):
    """Shorthand: gcounter(A=5, B=7) = {A ↦ 5, B ↦ 7}."""
    return MapLattice({k: MaxInt(v) for k, v in entries.items()})


class TestExample1JoinIrreducibility:
    """Paper Example 1: which states are join-irreducible."""

    def test_p1_single_entry_counter_is_irreducible(self):
        assert is_join_irreducible(gcounter(A=5))

    def test_p2_single_entry_counter_is_irreducible(self):
        assert is_join_irreducible(gcounter(B=6))

    def test_p3_two_entry_counter_is_reducible(self):
        assert not is_join_irreducible(gcounter(A=5, B=7))

    def test_s1_bottom_is_never_irreducible(self):
        assert not is_join_irreducible(SetLattice())

    def test_s2_singleton_set_is_irreducible(self):
        assert is_join_irreducible(SetLattice({"a"}))

    def test_s3_two_element_set_is_reducible(self):
        assert not is_join_irreducible(SetLattice({"a", "b"}))

    def test_definition_against_candidate_pool(self):
        """Definition 1 checked literally on the GSet Hasse diagram."""
        universe = [
            SetLattice(s)
            for s in [set(), {"a"}, {"b"}, {"c"}, {"a", "b"}, {"a", "c"},
                      {"b", "c"}, {"a", "b", "c"}]
        ]
        singletons = [SetLattice({e}) for e in "abc"]
        for value in universe:
            expected = value in singletons
            assert is_join_irreducible(value, candidates=universe) == expected


class TestExample2Decompositions:
    """Paper Example 2: tentative decompositions of p and s."""

    p = gcounter(A=5, B=7)
    s = SetLattice({"a", "b", "c"})

    def test_P1_not_a_decomposition(self):
        # {A5}, {B6} — join gives {A5,B6} ≠ p.
        parts = [gcounter(A=5), gcounter(B=6)]
        assert not is_join_decomposition(parts, self.p)

    def test_P2_decomposition_but_redundant(self):
        parts = [gcounter(A=5), gcounter(B=6), gcounter(B=7)]
        assert is_join_decomposition(parts, self.p)
        assert not is_irredundant_decomposition(parts, self.p)

    def test_P3_contains_reducible_element(self):
        # {A5,B6} is not join-irreducible, so not a join decomposition.
        parts = [gcounter(A=5, B=6), gcounter(B=7)]
        assert not is_join_decomposition(parts, self.p)

    def test_P4_is_the_unique_irredundant_decomposition(self):
        parts = [gcounter(A=5), gcounter(B=7)]
        assert is_irredundant_decomposition(parts, self.p)
        assert sorted(map(repr, decomposition(self.p))) == sorted(map(repr, parts))

    def test_S1_not_a_decomposition(self):
        parts = [SetLattice({"b"}), SetLattice({"c"})]
        assert not is_join_decomposition(parts, self.s)

    def test_S2_decomposition_with_redundancy_and_reducible(self):
        parts = [SetLattice({"a", "b"}), SetLattice({"b"}), SetLattice({"c"})]
        # {a,b} is reducible, so this fails Definition 2 outright.
        assert not is_join_decomposition(parts, self.s)

    def test_S3_irreducibility_failure(self):
        parts = [SetLattice({"a", "b"}), SetLattice({"c"})]
        assert not is_join_decomposition(parts, self.s)

    def test_S4_is_the_unique_irredundant_decomposition(self):
        parts = [SetLattice({"a"}), SetLattice({"b"}), SetLattice({"c"})]
        assert is_irredundant_decomposition(parts, self.s)
        assert sorted(map(repr, decomposition(self.s))) == sorted(map(repr, parts))


class TestAppendixCPNCounter:
    """⇓{A ↦ ⟨2,3⟩, B ↦ ⟨5,5⟩} from Appendix C."""

    def test_pncounter_decomposition(self):
        state = MapLattice(
            {
                "A": PairLattice(MaxInt(2), MaxInt(3)),
                "B": PairLattice(MaxInt(5), MaxInt(5)),
            }
        )
        expected = [
            MapLattice({"A": PairLattice(MaxInt(2), MaxInt(0))}),
            MapLattice({"A": PairLattice(MaxInt(0), MaxInt(3))}),
            MapLattice({"B": PairLattice(MaxInt(5), MaxInt(0))}),
            MapLattice({"B": PairLattice(MaxInt(0), MaxInt(5))}),
        ]
        parts = decomposition(state)
        assert sorted(map(repr, parts)) == sorted(map(repr, expected))
        assert is_irredundant_decomposition(parts, state)


class TestDeltaFunction:
    """∆(a, b) = ⊔{y ∈ ⇓a | y ⋢ b} — Section III-B."""

    def test_delta_gset(self):
        a = SetLattice({"a", "b"})
        b = SetLattice({"b", "c"})
        assert delta(a, b) == SetLattice({"a"})

    def test_delta_gcounter(self):
        a = gcounter(A=5, B=3)
        b = gcounter(A=2, B=7)
        assert delta(a, b) == gcounter(A=5)

    def test_delta_join_property(self):
        """∆(a, b) ⊔ b = a ⊔ b."""
        a = gcounter(A=5, B=3, C=1)
        b = gcounter(A=2, B=7)
        assert delta(a, b).join(b) == a.join(b)

    def test_delta_of_bottom(self):
        assert delta(SetLattice(), SetLattice({"x"})).is_bottom

    def test_delta_against_bottom_is_self(self):
        a = SetLattice({"a", "b"})
        assert delta(a, SetLattice()) == a

    def test_delta_minimality_brute_force(self):
        """Any c with c ⊔ b = a ⊔ b satisfies ∆(a,b) ⊑ c (GSet case)."""
        import itertools

        universe = ["a", "b", "c"]
        a = SetLattice({"a", "b"})
        b = SetLattice({"b", "c"})
        best = delta(a, b)
        target = a.join(b)
        for r in range(len(universe) + 1):
            for combo in itertools.combinations(universe, r):
                c = SetLattice(combo)
                if c.join(b) == target:
                    assert best.leq(c), f"∆ not minimal vs {c}"

    def test_base_class_delta_agrees_with_fast_paths(self):
        """The generic decomposition-based ∆ equals the overridden ones."""
        from repro.lattice.base import Lattice

        a = MapLattice({"x": SetLattice({"p", "q"}), "y": MaxInt(4)})
        b = MapLattice({"x": SetLattice({"q"}), "y": MaxInt(9)})
        generic = Lattice.delta(a, b)
        assert generic == a.delta(b)

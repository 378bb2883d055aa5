"""Shared hypothesis strategies for lattice values.

The strategies build arbitrary values of every lattice construct in the
library, letting property tests assert the join-semilattice laws, the
decomposition definitions (paper Definitions 1-3), and the optimality
of ``∆`` uniformly across all types.  Strategies for a given lattice
always draw from one fixed parameterization (same key space, same
bottoms), so any two generated values belong to the *same* lattice and
can be joined.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.lattice import (
    Bool,
    Chain,
    LexPair,
    LinearSum,
    MapLattice,
    MaxElements,
    MaxInt,
    PairLattice,
    SetLattice,
)

# ---------------------------------------------------------------------------
# Primitive strategies.
# ---------------------------------------------------------------------------

max_ints = st.integers(min_value=0, max_value=50).map(MaxInt)
bools = st.booleans().map(Bool)
chains = st.integers(min_value=0, max_value=50).map(lambda v: Chain(v, bottom=0))

_ELEMENTS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"])
set_lattices = st.frozensets(_ELEMENTS, max_size=6).map(SetLattice)

_KEYS = st.sampled_from(["k1", "k2", "k3", "k4", "k5"])
map_of_maxints = st.dictionaries(_KEYS, max_ints, max_size=4).map(MapLattice)
map_of_sets = st.dictionaries(_KEYS, set_lattices, max_size=3).map(MapLattice)

pairs = st.builds(PairLattice, max_ints, set_lattices)
nested_pairs = st.builds(PairLattice, max_ints, map_of_maxints)
lex_pairs = st.builds(LexPair, max_ints, set_lattices)

linear_sums = st.one_of(
    max_ints.map(LinearSum.left),
    set_lattices.map(lambda s: LinearSum.right(s, left_bottom=MaxInt(0))),
)


def _divides(x: int, y: int) -> bool:
    """Partial order for MaxElements tests: ``y ⊑ x`` when y divides x."""
    return x % y == 0


max_elements = st.frozensets(
    st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]), max_size=4
).map(lambda s: MaxElements(s, dominates=_divides))

#: Every lattice construct, each drawn from one consistent parameterization.
ALL_LATTICE_STRATEGIES = {
    "MaxInt": max_ints,
    "Bool": bools,
    "Chain": chains,
    "SetLattice": set_lattices,
    "MapLattice[MaxInt]": map_of_maxints,
    "MapLattice[Set]": map_of_sets,
    "PairLattice": pairs,
    "PairLattice[Map]": nested_pairs,
    "LexPair": lex_pairs,
    "LinearSum": linear_sums,
    "MaxElements": max_elements,
}

any_lattice_family = st.sampled_from(sorted(ALL_LATTICE_STRATEGIES))


# ---------------------------------------------------------------------------
# Hooks.
# ---------------------------------------------------------------------------


def pytest_make_parametrize_id(config, val, argname):
    if isinstance(val, str):
        return val
    return None

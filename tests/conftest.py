"""Shared hypothesis strategies for lattice values.

The strategies build arbitrary values of every lattice construct in the
library, letting property tests assert the join-semilattice laws, the
decomposition definitions (paper Definitions 1-3), and the optimality
of ``∆`` uniformly across all types.  Strategies for a given lattice
always draw from one fixed parameterization (same key space, same
bottoms), so any two generated values belong to the *same* lattice and
can be joined.

Causal states are the exception: a dot names one event of one
execution, so two states drawn from independent runs reuse dots for
different events, and their join fails (``Atom`` refuses two values
under one dot) or means nothing.  A causal family therefore draws an
execution over three replicas first and every value it hands out from
that one run; :func:`lattice_lists` is how a test asks for several
values of one family that may be joined.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.causal import (
    AWSet,
    CausalMVRegister,
    CCounter,
    DWFlag,
    EWFlag,
    ORMap,
    RWSet,
)
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

# ---------------------------------------------------------------------------
# Causal strategies: every state one random execution passes through.
# ---------------------------------------------------------------------------

REPLICAS = ("A", "B", "C")
_ARGS = ("x", "y", "z")
#: The nested map's keys, one per value type, named by a script argument.
_ORMAP_KEYS = dict(zip(_ARGS, ("set", "reg", "map")))


def scripts(kinds):
    """Op/merge scripts over three replicas.

    A step ``(kind, replica, arg)`` runs operation ``kind`` at one
    replica; ``(None, src, dst)`` merges ``src``'s state into ``dst``.
    """
    step = st.one_of(
        st.tuples(st.sampled_from(kinds), st.sampled_from(REPLICAS), st.sampled_from(_ARGS)),
        st.tuples(st.none(), st.sampled_from(REPLICAS), st.sampled_from(REPLICAS)),
    )
    return st.lists(step, max_size=14)


def _executions(bottom, mutators):
    """Each draw: the states of one run of a script over three replicas.

    Operation ``i`` runs ``mutators[i](replica, state, arg)`` and joins
    the δ in; the pool holds ⊥ and the state after every step.
    """

    def run(script):
        states = dict.fromkeys(REPLICAS, bottom)
        pool = [bottom]
        for op, replica, arg in script:
            if op is None:
                states[arg] = states[arg].join(states[replica])
                pool.append(states[arg])
            else:
                state = states[replica]
                states[replica] = state.join(mutators[op](replica, state, arg))
                pool.append(states[replica])
        return pool

    return scripts(range(len(mutators))).map(run)


def _argless(mutator):
    """A script step running a δ-mutator that takes no argument."""
    return lambda replica, state, _: mutator(replica, state)


#: Causal family → one execution's states (AWSet, RWSet, both flags, the
#: multi-value register, the causal counter and a map nesting an AWSet,
#: a register and a map of flags).
CAUSAL_EXECUTIONS = {
    "AWSet": _executions(
        AWSet.bottom(),
        (AWSet.add, AWSet.remove, _argless(AWSet.clear)),
    ),
    "RWSet": _executions(RWSet.bottom(), (RWSet.add, RWSet.remove)),
    "EWFlag": _executions(EWFlag.bottom(), (_argless(EWFlag.enable), _argless(EWFlag.disable))),
    "DWFlag": _executions(DWFlag.bottom(), (_argless(DWFlag.disable), _argless(DWFlag.enable))),
    "MVRegister": _executions(CausalMVRegister.bottom(), (CausalMVRegister.write,)),
    "CCounter": _executions(
        CCounter.bottom(), (_argless(CCounter.increment), _argless(CCounter.reset))
    ),
    "ORMap": _executions(
        ORMap.bottom(),
        (
            lambda replica, state, arg: ORMap.update(replica, state, "set", AWSet, "add", arg),
            lambda replica, state, arg: ORMap.update(replica, state, "set", AWSet, "remove", arg),
            lambda replica, state, arg: ORMap.update(
                replica, state, "reg", CausalMVRegister, "write", arg
            ),
            lambda replica, state, arg: ORMap.update(
                replica, state, "map", ORMap, "update", arg, EWFlag, "enable"
            ),
            lambda replica, state, arg: ORMap.update(replica, state, "map", ORMap, "remove", arg),
            lambda replica, state, arg: ORMap.remove(replica, state, _ORMAP_KEYS[arg]),
            _argless(ORMap.clear),
        ),
    ),
}

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
    **{
        family: executions.flatmap(st.sampled_from)
        for family, executions in CAUSAL_EXECUTIONS.items()
    },
}


def lattice_lists(family: str, *, min_size: int, max_size: int):
    """Values of one family that may be joined with each other.

    A causal family draws them all from one execution (see the module
    docstring); every other family draws them independently.
    """
    if family in CAUSAL_EXECUTIONS:
        return CAUSAL_EXECUTIONS[family].flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=min_size, max_size=max_size)
        )
    return st.lists(ALL_LATTICE_STRATEGIES[family], min_size=min_size, max_size=max_size)


def causal_states(n=1):
    """``n`` states of one causal family, drawn from one execution."""
    states = st.sampled_from(sorted(CAUSAL_EXECUTIONS)).flatmap(
        lambda family: lattice_lists(family, min_size=n, max_size=n)
    )
    return states.map(lambda picks: picks[0] if n == 1 else tuple(picks))


# ---------------------------------------------------------------------------
# Hooks.
# ---------------------------------------------------------------------------


def pytest_make_parametrize_id(config, val, argname):
    if isinstance(val, str):
        return val
    return None

"""``MapLattice`` size lineage: exact, O(|touched|), and only a memo.

A map produced by ``join`` from a sized parent settles its size from the
parent's total and the keys the join touched (``lattice/map_lattice.py``,
*Size lineage*).  Three things are pinned here, all through the public
``size_units`` / ``size_bytes`` methods:

* exactness — random interleavings of joins, size reads and forks always
  agree with a cold rebuild of the same entries;
* the counter-example to ``size(a ⊔ b) = size(b) + size(∆(a, b))``;
* cost — counted in ``SizeModel.sizeof`` calls, never in seconds.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.causal import AWSet
from repro.lattice import MapLattice, MaxInt, SetLattice
from repro.lattice.base import Lattice
from repro.sizes import SizeModel

MODELS = (SizeModel(), SizeModel(int_bytes=4, id_bytes=16))

#: Strings, integers and tuples, so ``sizeof(key)`` differs per key.
KEYS = ["k0", "key-one", "k2", "κλειδί", 4, 5, ("shard", 6), ("shard", 7), "k8", "k9", "k10", "k11"]


def cold(value: Lattice) -> Lattice:
    """``value`` rebuilt through the public constructor, maps all the way down."""
    if isinstance(value, MapLattice):
        return MapLattice({key: cold(inner) for key, inner in value.entries.items()})
    return value


def assert_sizes_exact(value: MapLattice) -> None:
    reference = cold(value)
    assert value.size_units() == reference.size_units()
    for model in MODELS:
        assert value.size_bytes(model) == reference.size_bytes(model)


def _awset_states() -> list:
    """Reachable causal states of one add/remove execution over two replicas."""
    left, right = AWSet("A"), AWSet("B")
    states = []
    for step, element in enumerate("xyzxy"):
        (left if step % 2 else right).add(element)
        states.append(left.state)
        states.append(right.state)
    left.remove("x")
    left.merge(right)
    return states + [left.state]


_max_ints = st.integers(min_value=1, max_value=9).map(MaxInt)
_sets = st.frozensets(st.sampled_from(["a", "bb", "ccc", "d"]), min_size=1, max_size=3).map(SetLattice)
_inner_maps = st.dictionaries(st.sampled_from(["i", "j", "kk"]), _max_ints, min_size=1, max_size=3).map(MapLattice)
_causal = st.sampled_from([state for state in _awset_states() if not state.is_bottom])

#: One value lattice per family: every value drawn from it joins with every other.
FAMILIES = {"maxint": _max_ints, "set": _sets, "nested-map": _inner_maps, "causal": _causal}


@st.composite
def scripts(draw):
    """A wide base state plus steps over a growing pool of values.

    ``("join", i, δ)`` appends ``pool[i] ⊔ δ`` — naming one ``i`` twice is
    a fork, of a sized or an unsized parent; ``("units", i)`` and
    ``("bytes", i, m)`` are the size reads that settle a lineage.
    """
    values = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    base = draw(st.dictionaries(st.sampled_from(KEYS), values, min_size=8))
    # Mostly narrow δs (lineage kept), sometimes wide ones (lineage dropped).
    deltas = st.dictionaries(st.sampled_from(KEYS), values, min_size=1, max_size=draw(st.sampled_from([2, 3, 9])))
    index = st.integers(min_value=0, max_value=40)
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("join"), index, deltas),
                st.tuples(st.just("units"), index),
                st.tuples(st.just("bytes"), index, st.sampled_from(MODELS)),
            ),
            max_size=25,
        )
    )
    return base, steps


@settings(max_examples=150, deadline=None)
@given(scripts(), st.booleans())
def test_sizes_equal_a_cold_rebuild_after_every_step(script, base_is_sized):
    base, steps = script
    pool = [MapLattice(base)]
    if base_is_sized:
        pool[0].size_bytes(MODELS[0])
    for step in steps:
        target = pool[step[1] % len(pool)]
        if step[0] == "join":
            pool.append(target.join(MapLattice(step[2])))
        elif step[0] == "units":
            assert target.size_units() == cold(target).size_units()
        else:
            assert target.size_bytes(step[2]) == cold(target).size_bytes(step[2])
    for value in pool:
        assert_sizes_exact(value)


def test_overwriting_join_is_not_the_sum_of_state_and_delta():
    """``{k↦1} ⊔ {k↦2}``: Δ is one unit, yet the state does not grow."""
    model = MODELS[0]
    state = MapLattice({"k": MaxInt(1)})
    assert (state.size_units(), state.size_bytes(model)) == (1, model.sizeof("k") + model.int_bytes)
    delta = MapLattice({"k": MaxInt(2)})
    assert delta.delta(state).size_units() == 1
    joined = state.join(delta)
    assert joined.size_units() == 1
    assert joined.size_bytes(model) == model.sizeof("k") + model.int_bytes


def test_wholly_novel_delta_is_the_same_object():
    state = MapLattice({"a": MaxInt(3), "b": MaxInt(1)})
    novel = MapLattice({"b": MaxInt(2), "c": MaxInt(1)})
    assert novel.delta(state) is novel
    partly = MapLattice({"a": MaxInt(2), "c": MaxInt(1)})
    assert partly.delta(state) == MapLattice({"c": MaxInt(1)})
    assert MapLattice({"a": MaxInt(3)}).delta(state).is_bottom


# ---------------------------------------------------------------------------
# Cost, in counted ``sizeof`` calls.
# ---------------------------------------------------------------------------


class CountingModel(SizeModel):
    """A ``SizeModel`` that counts the atoms it is asked to size."""

    calls = 0

    def sizeof(self, value):
        CountingModel.calls += 1
        return super().sizeof(value)


def _counted(read) -> int:
    before = CountingModel.calls
    read()
    return CountingModel.calls - before


def _state(keys: int = 1000) -> MapLattice:
    return MapLattice({f"key-{index:04d}": MaxInt(1) for index in range(keys)})


def test_a_small_join_is_sized_in_calls_proportional_to_the_delta():
    model = CountingModel()
    state = _state()
    assert _counted(lambda: state.size_bytes(model)) == 1000
    # Three overwrites, four new keys.
    delta = MapLattice({f"key-{index:04d}": MaxInt(2) for index in range(997, 1004)})
    joined = state.join(delta)
    assert _counted(lambda: joined.size_bytes(model)) <= 7
    assert joined.size_bytes(model) == cold(joined).size_bytes(model)
    assert joined.size_units() == 1004


def test_a_redundant_state_sized_group_costs_only_what_it_teaches():
    model = CountingModel()
    state = _state()
    state.size_bytes(model)
    # A full-state message (state-based, or classic's re-sent δ-group)
    # that is news in two bindings and one key.
    news = {"key-0007": MaxInt(2), "key-0500": MaxInt(3), "key-1000": MaxInt(1)}
    joined = state.join(MapLattice({**state.entries, **news}))
    assert _counted(lambda: joined.size_bytes(model)) <= 3
    assert joined.size_bytes(model) == cold(joined).size_bytes(model)
    assert joined.size_units() == 1001


def test_chained_unsized_joins_settle_in_the_union_of_their_keys():
    model = CountingModel()
    state = _state()
    state.size_bytes(model)
    touched = set()
    for step in range(5):
        # Consecutive δs overlap in one key and each adds one new key.
        keys = [f"key-{step * 2 + offset:04d}" for offset in range(3)] + [f"new-{step}"]
        touched.update(keys)
        state = state.join(MapLattice({key: MaxInt(step + 2) for key in keys}))
    assert _counted(lambda: state.size_bytes(model)) <= len(touched)
    assert state.size_bytes(model) == cold(state).size_bytes(model)
    assert state.size_units() == 1005


def test_a_wide_join_falls_back_to_the_full_sum_and_stays_exact():
    model = CountingModel()
    state = _state(100)
    state.size_bytes(model)
    wide = MapLattice({f"key-{index:04d}": MaxInt(2) for index in range(40, 120)})
    joined = state.join(wide)
    assert _counted(lambda: joined.size_bytes(model)) == 120
    assert joined.size_bytes(model) == cold(joined).size_bytes(model)
    assert joined.size_units() == 120

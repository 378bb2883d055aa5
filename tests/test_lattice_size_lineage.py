"""``MapLattice`` size lineage: exact, O(|touched|), and only a memo.

A map produced by ``join`` from a sized parent settles its size from the
parent's total and the keys the join touched (``lattice/map_lattice.py``,
*Size lineage*).  Three things are pinned here, all through the public
``size_units`` / ``size_bytes`` methods:

* exactness — random interleavings of joins, size reads and forks always
  agree with a cold rebuild of the same entries, whether the operands
  share keys (the pointwise loop) or not (the union, whose sizes add);
* the counter-example to ``size(a ⊔ b) = size(b) + size(∆(a, b))``;
* born sizes — the totals ``delta`` sums on its walk equal the ones a
  fresh map of the same bindings sums from scratch, for every value
  family of ``conftest.ALL_LATTICE_STRATEGIES``;
* cost — counted in ``sizes.sizeof`` calls, never in seconds.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro import sizes
from repro.causal import AWSet
from repro.lattice import Bool, MapLattice, MaxInt, SetLattice, join_all
from repro.lattice.base import Lattice
from repro.sync import DeltaBased

from conftest import ALL_LATTICE_STRATEGIES, lattice_lists

#: Strings, integers and tuples, so ``sizeof(key)`` differs per key.
KEYS = ["k0", "key-one", "k2", "κλειδί", 4, 5, ("shard", 6), ("shard", 7), "k8", "k9", "k10", "k11"]
#: Room beside a wide base state for parts that share no key with it.
KEYS += [f"spare-{index}" for index in range(8)]


def cold(value: Lattice) -> Lattice:
    """``value`` rebuilt through the public constructor, maps all the way down."""
    if isinstance(value, MapLattice):
        return MapLattice({key: cold(inner) for key, inner in value.entries.items()})
    return value


def loop_join(a: MapLattice, b: MapLattice) -> dict:
    """The pointwise join as a plain loop: the reference for entries and order."""
    merged = dict(a.entries)
    for key, value in b.entries.items():
        current = merged.get(key)
        merged[key] = value if current is None else current.join(value)
    return merged


def assert_sizes_exact(value: MapLattice) -> None:
    reference = cold(value)
    assert value.size_units() == reference.size_units()
    assert value.size_bytes() == reference.size_bytes()


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
    """A wide base state, key-disjoint parts beside it, and steps over a
    growing pool of values.

    ``("join", i, δ)`` appends ``pool[i] ⊔ δ`` with a fresh, unsized δ;
    ``("merge", i, j)`` appends ``pool[i] ⊔ pool[j]``, so either operand
    may be settled, owed or unsized — and, while
    both are still the parts the pool opened with, key-disjoint.  Naming
    one ``i`` twice is a fork, of a sized or an unsized parent;
    ``("units", i)`` and ``("bytes", i)`` are the size reads that
    settle a lineage.
    """
    values = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    base = draw(st.dictionaries(st.sampled_from(KEYS), values, min_size=8, max_size=14))
    # What a δ-buffer under RR holds: maps that share no key.
    parts = draw(st.lists(st.dictionaries(st.sampled_from(KEYS), values, max_size=4), max_size=4))
    taken = set(base)
    for part in parts:
        for key in taken.intersection(part):
            del part[key]
        taken.update(part)
    # Mostly narrow δs (lineage kept), sometimes wide ones (lineage dropped).
    deltas = st.dictionaries(st.sampled_from(KEYS), values, min_size=1, max_size=draw(st.sampled_from([2, 3, 9])))
    index = st.integers(min_value=0, max_value=40)
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("join"), index, deltas),
                st.tuples(st.just("merge"), index, index),
                st.tuples(st.just("units"), index),
                st.tuples(st.just("bytes"), index),
            ),
            max_size=25,
        )
    )
    return base, [part for part in parts if part], steps


@settings(max_examples=250, deadline=None)
@given(scripts(), st.booleans())
def test_sizes_equal_a_cold_rebuild_after_every_step(script, base_is_sized):
    base, parts, steps = script
    pool = [MapLattice(base)] + [MapLattice(part) for part in parts]
    if base_is_sized:
        pool[0].size_bytes()
    for step in steps:
        target = pool[step[1] % len(pool)]
        if step[0] in ("join", "merge"):
            other = MapLattice(step[2]) if step[0] == "join" else pool[step[2] % len(pool)]
            joined = target.join(other)
            assert list(joined.entries.items()) == list(loop_join(target, other).items())
            pool.append(joined)
        elif step[0] == "units":
            assert target.size_units() == cold(target).size_units()
        else:
            assert target.size_bytes() == cold(target).size_bytes()
    for value in pool:
        assert_sizes_exact(value)


#: What a part may know of its own size when it is joined.
KNOWLEDGE = ("nothing", "units", "bytes", "both", "owed")


def _knowing(entries: dict, knows: str) -> MapLattice:
    if knows == "owed":
        # A sized ancestor joined with one more key: a lineage of one.
        last = next(reversed(entries))
        ancestor = MapLattice({key: value for key, value in entries.items() if key != last})
        ancestor.size_units(), ancestor.size_bytes()
        return ancestor.join(MapLattice({last: entries[last]}))
    value = MapLattice(entries)
    if knows in ("units", "both"):
        value.size_units()
    if knows in ("bytes", "both"):
        value.size_bytes()
    return value


def test_a_union_of_disjoint_parts_is_exact_whatever_each_part_knows():
    """Three key-disjoint parts folded left to right, under every
    combination of what each knows of its own size."""
    parts = [
        {"k0": SetLattice({"a"}), ("shard", 6): MaxInt(2), "κλειδί": SetLattice({"bb", "d"})},
        {4: MaxInt(1), "key-one": SetLattice({"ccc"}), "k2": MaxInt(5), "k8": MaxInt(1)},
        {"k9": MaxInt(3), 5: SetLattice({"a", "d"})},
    ]
    for knowledge in itertools.product(KNOWLEDGE, repeat=3):
        first, second, third = [_knowing(part, knows) for part, knows in zip(parts, knowledge)]
        fork = first.join(third)
        group = first.join(second).join(third)
        assert_sizes_exact(group)
        assert_sizes_exact(fork)
        # Joining read each operand's memo and left it as it was.
        for operand in (first, second, third):
            assert_sizes_exact(operand)


def test_a_union_keeps_the_order_the_loop_produced():
    """Entries and ``decompose()`` come out as the pointwise loop laid
    them: mine first, then theirs in their own order."""
    mine = MapLattice({"m2": MaxInt(1), "m1": SetLattice({"a", "b"})})
    one = MapLattice({"t0": MaxInt(4)})
    many = MapLattice({"t9": MaxInt(2), "t1": SetLattice({"c"}), "t5": MaxInt(3)})
    overlapping = MapLattice({"t9": MaxInt(1), "m1": SetLattice({"z"}), "t0": MaxInt(1)})
    for a, b in [(mine, one), (one, mine), (mine, many), (many, mine), (mine, overlapping), (one, overlapping)]:
        joined = a.join(b)
        reference = loop_join(a, b)
        assert list(joined.entries.items()) == list(reference.items())
        assert list(joined.decompose()) == list(MapLattice(reference).decompose())
    assert list(mine.join(many).entries) == ["m2", "m1", "t9", "t1", "t5"]


def test_overwriting_join_is_not_the_sum_of_state_and_delta():
    """``{k↦1} ⊔ {k↦2}``: Δ is one unit, yet the state does not grow."""
    state = MapLattice({"k": MaxInt(1)})
    assert (state.size_units(), state.size_bytes()) == (1, sizes.sizeof("k") + sizes.INT_BYTES)
    delta = MapLattice({"k": MaxInt(2)})
    assert delta.delta(state).size_units() == 1
    joined = state.join(delta)
    assert joined.size_units() == 1
    assert joined.size_bytes() == sizes.sizeof("k") + sizes.INT_BYTES


def test_wholly_novel_delta_is_the_same_object():
    state = MapLattice({"a": MaxInt(3), "b": MaxInt(1)})
    novel = MapLattice({"b": MaxInt(2), "c": MaxInt(1)})
    assert novel.delta(state) is novel
    partly = MapLattice({"a": MaxInt(2), "c": MaxInt(1)})
    assert partly.delta(state) == MapLattice({"c": MaxInt(1)})
    assert MapLattice({"a": MaxInt(3)}).delta(state).is_bottom


# ---------------------------------------------------------------------------
# Born sized: ``delta`` sums the bindings it keeps.
# ---------------------------------------------------------------------------


@st.composite
def delta_operands(draw, family):
    """``(a, b)`` over one family's joinable values: shared keys, some of
    them bound to the very same object, and ``a``'s memo cold, sized or
    owed through a lineage."""
    pool = draw(lattice_lists(family, min_size=1, max_size=6))
    bindings = st.dictionaries(st.sampled_from(KEYS[:8]), st.sampled_from(pool), max_size=6)
    a, b = MapLattice(draw(bindings)), MapLattice(draw(bindings))
    memo = draw(st.sampled_from(("cold", "sized", "owed")))
    if memo == "sized":
        _sizes(a)
    elif memo == "owed":
        _sizes(a)
        a = a.join(MapLattice(draw(bindings)))
    return a, b


def _from_scratch(value: MapLattice) -> tuple:
    """``value``'s totals, summed by a fresh map with no memo at any depth."""
    return _sizes(cold(MapLattice(dict(value.entries))))


@pytest.mark.parametrize("family", sorted(ALL_LATTICE_STRATEGIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_delta_is_born_with_the_sizes_a_cold_rebuild_sums(family, data):
    a, b = data.draw(delta_operands(family))
    expected = _from_scratch(a)
    d = a.delta(b)
    if d is a:
        # Unfiltered: the walk's totals may fill ``a``'s memo, never skew it.
        units, nbytes, owed = a._size
        if owed is None:
            assert units in (None, expected[0]) and nbytes in (None, expected[1])
        assert _sizes(a) == expected
    elif not d.is_bottom:
        assert d._size == (*_from_scratch(d), None)


def test_a_delta_over_mixed_value_classes_is_born_with_exact_sizes():
    """Two ``fixed_size`` classes and a sized one under one map: the
    first fixed class is counted, the rest are asked binding by binding."""
    mixed = MapLattice(
        {"a": MaxInt(2), "b": Bool(True), "c": MaxInt(3), "d": SetLattice({"x", "yy"}), "e": Bool(True)}
    )
    d = mixed.delta(MapLattice({"a": MaxInt(5)}))
    assert d._size == (*_from_scratch(d), None) == (5, 4 + 8 + 2 * 1 + 3, None)


# ---------------------------------------------------------------------------
# Cost, in counted ``sizeof`` calls.
# ---------------------------------------------------------------------------


def _counted(read) -> int:
    """The ``sizes.sizeof`` calls ``read()`` makes, counted by patching
    the module attribute every caller reaches it through."""
    calls = 0
    sizeof = sizes.sizeof

    def counting(value):
        nonlocal calls
        calls += 1
        return sizeof(value)

    sizes.sizeof = counting
    try:
        read()
    finally:
        sizes.sizeof = sizeof
    return calls


def _state(keys: int = 1000) -> MapLattice:
    return MapLattice({f"key-{index:04d}": MaxInt(1) for index in range(keys)})


def test_a_small_join_is_sized_in_calls_proportional_to_the_delta():
    state = _state()
    assert _counted(lambda: state.size_bytes()) == 1000
    # Three overwrites, four new keys.
    delta = MapLattice({f"key-{index:04d}": MaxInt(2) for index in range(997, 1004)})
    joined = state.join(delta)
    # The overwrites rebind fixed-size ``MaxInt``s: only the new keys are owed.
    assert _counted(lambda: joined.size_bytes()) == 4
    assert joined.size_bytes() == cold(joined).size_bytes()
    assert joined.size_units() == 1004


def test_a_redundant_state_sized_group_costs_only_what_it_teaches():
    state = _state()
    state.size_bytes()
    # A full-state message (state-based, or classic's re-sent δ-group)
    # that is news in two bindings and one key.
    news = {"key-0007": MaxInt(2), "key-0500": MaxInt(3), "key-1000": MaxInt(1)}
    joined = state.join(MapLattice({**state.entries, **news}))
    assert _counted(lambda: joined.size_bytes()) <= 3
    assert joined.size_bytes() == cold(joined).size_bytes()
    assert joined.size_units() == 1001


def test_chained_unsized_joins_settle_in_the_union_of_their_keys():
    state = _state()
    state.size_bytes()
    touched = set()
    for step in range(5):
        # Consecutive δs overlap in one key and each adds one new key.
        keys = [f"key-{step * 2 + offset:04d}" for offset in range(3)] + [f"new-{step}"]
        touched.update(keys)
        state = state.join(MapLattice({key: MaxInt(step + 2) for key in keys}))
    assert _counted(lambda: state.size_bytes()) <= len(touched)
    assert state.size_bytes() == cold(state).size_bytes()
    assert state.size_units() == 1005


def test_a_wide_join_falls_back_to_the_full_sum_and_stays_exact():
    """Sets are not fixed-size, so every rebinding is touched; 60 of them
    plus 20 new keys outnumber half of 120 entries."""
    state = MapLattice({f"key-{index:04d}": SetLattice({"x"}) for index in range(100)})
    state.size_bytes()
    wide = MapLattice({f"key-{index:04d}": SetLattice({"y"}) for index in range(40, 120)})
    joined = state.join(wide)
    # The full sum: 120 keys, 60 fresh two-element sets, 20 fresh one-element sets.
    assert _counted(lambda: joined.size_bytes()) == 120 + 60 * 2 + 20
    assert joined.size_bytes() == cold(joined).size_bytes()
    assert joined.size_units() == 60 * 2 + 60


def test_rebinding_fixed_size_values_owes_nothing():
    """A ``MaxInt`` rebound to a larger ``MaxInt`` keeps its size, so a
    join that only raises counters leaves no lineage to walk."""
    state = _state()
    _sizes(state)
    # 600 rebindings would outnumber half the entries if they were touched.
    joined = state.join(_part(200, 600, value=2))
    assert _counted(lambda: _sizes(joined)) == 0
    assert _sizes(joined) == _sizes(cold(joined)) == (1000, 1000 * (8 + 8))


# ---------------------------------------------------------------------------
# Disjoint operands: a δ-group is sized by adding its parts.
# ---------------------------------------------------------------------------


def _part(first: int, count: int, value: int = 1) -> MapLattice:
    return MapLattice({f"key-{index:04d}": MaxInt(value) for index in range(first, first + count)})


def _sizes(value: MapLattice) -> tuple:
    return value.size_units(), value.size_bytes()


def test_a_group_of_sized_disjoint_parts_is_born_sized():
    parts = [_part(0, 2), _part(2, 19), _part(21, 30), _part(51, 23)]
    assert _counted(lambda: [_sizes(part) for part in parts]) == 74
    group = join_all(parts, MapLattice())
    assert _counted(lambda: _sizes(group)) == 0
    assert _sizes(group) == _sizes(cold(group)) == (74, 74 * (8 + 8))


def test_a_one_entry_part_is_not_probed_and_owes_its_one_key():
    """A one-entry ``other`` takes the pointwise loop, as every KV write
    must at no extra cost; the group owes that key through later unions."""
    parts = [_part(0, 19), _part(19, 1), _part(20, 30), _part(50, 1), _part(51, 23)]
    for part in parts:
        _sizes(part)
    group = join_all(parts, MapLattice())
    assert _counted(lambda: _sizes(group)) == 2
    assert _sizes(group) == _sizes(cold(group))


def test_an_unsized_part_costs_its_own_keys_and_no_one_elses():
    sized, unsized, last = _part(0, 40), _part(40, 5), _part(45, 20)
    _sizes(sized), _sizes(last)
    group = sized.join(unsized).join(last)
    assert _counted(lambda: _sizes(group)) == 5
    assert _sizes(group) == _sizes(cold(group))
    # Joining settled nothing behind the operand's back.
    assert _counted(lambda: _sizes(unsized)) == 5


def test_a_state_joined_with_novel_keys_carries_what_it_already_owed():
    state = _state()
    _sizes(state)
    owed = state.join(_part(500, 3, value=2))  # three overwrites, still owed
    novel = _part(2000, 4)
    _sizes(novel)
    grown = owed.join(novel)  # a union: totals add, the three stay owed
    assert _counted(lambda: _sizes(grown)) == 0  # overwrites cost no ``sizeof``
    assert _sizes(grown) == _sizes(cold(grown))
    assert grown.size_units() == 1004
    assert _sizes(owed) == _sizes(cold(owed))


def test_a_local_delta_joined_into_four_groups_is_walked_once():
    """BP gives each of four neighbours a private group (everything but
    its own δ); the local δ is in all four and sized for the first."""
    node = DeltaBased(0, [1, 2, 3, 4], MapLattice(), n_nodes=5, bp=True, rr=True)
    for neighbor in node.neighbors:
        node.absorb_state(_part(100 * neighbor, 19), src=neighbor)
    node.memory_bytes()  # the sample every received δ sits through
    local = node.local_update(lambda state: _part(900, 6))
    sends = []
    assert _counted(lambda: sends.extend(node.sync_messages())) == len(local)
    assert len({id(send.message) for send in sends}) == 4
    for send in sends:
        group = send.message.payload
        assert len(group) == 3 * 19 + 6
        assert (send.message.payload_units, send.message.payload_bytes) == _sizes(cold(group))

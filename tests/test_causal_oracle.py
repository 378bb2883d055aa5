"""A deliberately naive causal lattice, run differentially against
:mod:`repro.causal`.

The oracle transcribes the dot stores of the δ-CRDT paper (Almeida et
al., the ``DeltaCRDT.py`` of SNIPPETS.md) as plainly as Python allows:

* a causal context is an uncompressed ``set`` of ``(replica, counter)``
  dots — no version vector, no cloud, no normalization;
* ``DotSet`` is a set of dots, ``DotFun`` a dict from dots to values,
  ``DotMap`` a dict from keys to dot stores;
* the join is the three-clause rule ``(s ∩ s') ∪ (s \\ c') ∪ (s' \\ c)``,
  applied per dot for ``DotFun`` and per key for ``DotMap``.

Each mutator is written again from its type's docstring: a fresh dot is
one above the highest counter the replica's context holds, and the
covered dots go into the δ's context.  Both implementations replay the
same op/merge scripts over three replicas — ``conftest.scripts``, the
ones every causal family draws its reachable states from — and after
every step each replica's dots, values and context must agree.
"""

import pytest
from hypothesis import given

from repro.causal import AWSet, CCounter, CausalMVRegister, EWFlag, RWSet
from repro.causal import DotFun as StoreFun
from repro.causal import DotMap as StoreMap
from repro.causal import DotSet as StoreSet

from conftest import REPLICAS, scripts


# ---------------------------------------------------------------------------
# The oracle's dot stores.
# ---------------------------------------------------------------------------


class DotSet:
    def __init__(self, dots=()):
        self.set = set(dots)

    def dots(self):
        return set(self.set)

    def is_bottom(self):
        return not self.set

    def join(self, other, c, c2):
        return DotSet(
            (self.set & other.set) | (self.set - c2) | (other.set - c)
        )

    def plain(self):
        return frozenset(self.set)


class DotFun:
    def __init__(self, entries=None):
        self.map = dict(entries or {})

    def dots(self):
        return set(self.map)

    def is_bottom(self):
        return not self.map

    def join(self, other, c, c2):
        merged = {d: v for d, v in self.map.items() if d not in c2}
        merged.update({d: v for d, v in other.map.items() if d not in c})
        for d in self.map.keys() & other.map.keys():
            merged[d] = _join_values(self.map[d], other.map[d])
        return DotFun(merged)

    def plain(self):
        return dict(self.map)


def _join_values(a, b):
    """Counter tallies join by max; a written value only ever meets
    itself, since one dot names one write."""
    if isinstance(a, int):
        return max(a, b)
    assert a == b, (a, b)
    return a


class DotMap:
    def __init__(self, entries=None):
        self.map = dict(entries or {})

    def dots(self):
        out = set()
        for store in self.map.values():
            out |= store.dots()
        return out

    def is_bottom(self):
        return not self.map

    def join(self, other, c, c2):
        merged = {}
        for key in self.map.keys() | other.map.keys():
            mine = self.map.get(key, DotSet())
            theirs = other.map.get(key, DotSet())
            joined = mine.join(theirs, c, c2)
            if not joined.is_bottom():
                merged[key] = joined
        return DotMap(merged)

    def plain(self):
        return {key: store.plain() for key, store in self.map.items()}


class Replica:
    """One oracle replica: a dot store and its uncompressed context."""

    def __init__(self, name, store):
        self.name = name
        self.store = store
        self.context = set()

    def next_dot(self):
        top = max((n for r, n in self.context if r == self.name), default=0)
        return (self.name, top + 1)

    def apply(self, store, context):
        """Join a δ (or a whole state) into this replica."""
        self.store = self.store.join(store, self.context, context)
        self.context = self.context | context

    def merge(self, other):
        self.apply(other.store, other.context)


# ---------------------------------------------------------------------------
# The oracle's mutators, one per (family, op).
# ---------------------------------------------------------------------------


def awset_add(replica, element):
    dot = replica.next_dot()
    old = replica.store.map.get(element, DotSet()).dots()
    replica.apply(DotMap({element: DotSet({dot})}), old | {dot})


def awset_remove(replica, element):
    replica.apply(DotMap(), replica.store.map.get(element, DotSet()).dots())


def rwset_assert(side):
    def mutate(replica, element):
        dot = replica.next_dot()
        covered = {dot}
        for tag in (True, False):
            covered |= replica.store.map.get((element, tag), DotSet()).dots()
        replica.apply(DotMap({(element, side): DotSet({dot})}), covered)

    return mutate


def flag_enable(replica, _):
    dot = replica.next_dot()
    replica.apply(DotSet({dot}), replica.store.dots() | {dot})


def cover_observed(store_type):
    def mutate(replica, _):
        replica.apply(store_type(), replica.store.dots())

    return mutate


def mvreg_write(replica, value):
    dot = replica.next_dot()
    replica.apply(DotFun({dot: value}), replica.store.dots() | {dot})


def ccounter_increment(replica, _):
    own = [(d, v) for d, v in replica.store.map.items() if d[0] == replica.name]
    assert len(own) <= 1, f"{replica.name} holds {len(own)} live tallies"
    dot = replica.next_dot()
    tally = 1 + sum(v for _, v in own)
    replica.apply(DotFun({dot: tally}), {d for d, _ in own} | {dot})


#: family → (repro type, oracle bottom store, {op: (repro call, oracle mutator)}).
FAMILIES = {
    "awset": (
        AWSet,
        DotMap,
        {
            "add": (lambda crdt, e: crdt.add(e), awset_add),
            "remove": (lambda crdt, e: crdt.remove(e), awset_remove),
        },
    ),
    "rwset": (
        RWSet,
        DotMap,
        {
            "add": (lambda crdt, e: crdt.add(e), rwset_assert(True)),
            "remove": (lambda crdt, e: crdt.remove(e), rwset_assert(False)),
        },
    ),
    "ewflag": (
        EWFlag,
        DotSet,
        {
            "add": (lambda crdt, _: crdt.enable(), flag_enable),
            "remove": (lambda crdt, _: crdt.disable(), cover_observed(DotSet)),
        },
    ),
    "mvreg": (
        CausalMVRegister,
        DotFun,
        {"write": (lambda crdt, e: crdt.write(e), mvreg_write)},
    ),
    "ccounter": (
        CCounter,
        DotFun,
        {
            "increment": (lambda crdt, _: crdt.increment(), ccounter_increment),
            "reset": (lambda crdt, _: crdt.reset(), cover_observed(DotFun)),
        },
    ),
}


def plain_store(store):
    """A :mod:`repro.causal` dot store in the oracle's plain terms."""
    if isinstance(store, StoreSet):
        return frozenset(tuple(dot) for dot in store.dots())
    if isinstance(store, StoreFun):
        return {tuple(dot): value.value for dot, value in store.items()}
    assert isinstance(store, StoreMap), type(store)
    return {key: plain_store(sub) for key, sub in store.items()}


def assert_agree(crdt, replica):
    state = crdt.state
    assert {tuple(d) for d in state.store.dots()} == replica.store.dots()
    assert plain_store(state.store) == replica.store.plain()
    assert {tuple(d) for d in state.context.dots()} == replica.context


def replay(family, ops):
    crdt_type, bottom, mutators = FAMILIES[family]
    crdts = {name: crdt_type(name) for name in REPLICAS}
    oracle = {name: Replica(name, bottom()) for name in REPLICAS}
    for op in ops:
        kind, name, arg = op
        if kind is None:
            # (None, src, dst): dst joins src's whole state.
            crdts[arg].merge(crdts[name])
            oracle[arg].merge(oracle[name])
        else:
            call, mutate = mutators[kind]
            call(crdts[name], arg)
            mutate(oracle[name], arg)
        for replica in REPLICAS:
            assert_agree(crdts[replica], oracle[replica])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_causal_types_agree_with_the_naive_oracle(family):
    @given(scripts(tuple(FAMILIES[family][2])))
    def check(ops):
        replay(family, ops)

    check()


def test_oracle_join_is_the_three_clause_rule():
    """A concurrent add survives a remove that never saw it; a removed
    dot stays removed against a state that still holds it."""
    a, b = Replica("A", DotSet()), Replica("B", DotSet())
    flag_enable(a, None)
    b.merge(a)
    cover_observed(DotSet)(b, None)  # b saw ("A", 1) and drops it
    flag_enable(a, None)  # concurrent with b's disable
    a.merge(b)
    assert a.store.plain() == {("A", 2)}
    assert a.context == {("A", 1), ("A", 2)}

"""Every value type is immutable by inheritance.

Optimal deltas, δ-buffers and shared messages alias the same value
objects, and the digest index pairs a value's cached fingerprints with
its ``decompose()`` order by object identity, so a value that changed
after it left its replica would corrupt state far from the write.
Values are immutable to everyone but the one replica that built them:
a delta-based replica joins δs in place into a state no one has read
yet (``MapLattice.join_owned``; ``test_owned_state.py`` checks that
nothing it handed out changes).  One base,
``repro.lattice.base.Frozen``, refuses every attribute write and delete;
this file checks every concrete value class against it.

The classes are found, not listed: every concrete subclass of
``Lattice`` and ``DotStore`` that ``repro`` defines, plus
``CausalContext``.  Their instances are harvested from a few composite
values by walking slots, so a new class that appears inside one of them
is checked with no edit here, and one that appears nowhere fails by
name.
"""

import inspect

import pytest

import repro  # noqa: F401 -- defines every value class the walk can find
from repro.causal import AWSet, Atom, Causal, CausalContext, Dot, DotFun, DotMap, DotSet, DotStore
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
from repro.lattice.base import Frozen, Lattice


def _value_classes():
    found, stack = {CausalContext}, [Lattice, DotStore]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if not inspect.isabstract(cls) and cls.__module__.startswith("repro."):
            found.add(cls)
    return sorted(found, key=lambda cls: cls.__name__)


VALUE_CLASSES = _value_classes()


def _slots(cls):
    return [slot for klass in cls.__mro__ for slot in vars(klass).get("__slots__", ())]


def _roots():
    """Fresh composite values holding an instance of every value class."""
    aws = AWSet("A")
    for element in ("x", "y"):
        aws.add(element)
    aws.remove("x")
    return [
        MapLattice({"k": PairLattice(MaxInt(2), SetLattice({"x", "y"}))}),
        LexPair(Chain(7, bottom=0), Bool(True)),
        LinearSum.left(MaxInt(3)),
        MaxElements({4, 3}, dominates=lambda x, y: x % y == 0),
        Causal(DotFun({Dot("A", 1): Atom("v")}), CausalContext({"A": 1}, [Dot("B", 3)])),
        aws.state,
    ]


def _harvest(value, found):
    if isinstance(value, (Lattice, DotStore, CausalContext)):
        found.setdefault(type(value), value)
        children = [getattr(value, slot) for slot in _slots(type(value))]
    elif isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (tuple, list, frozenset)):
        children = list(value)
    else:
        return
    for child in children:
        _harvest(child, found)


@pytest.fixture
def sample():
    """``sample(cls)``: an instance of ``cls`` from fresh roots."""
    found = {}
    for root in _roots():
        _harvest(root, found)

    def pick(cls):
        if cls not in found:
            pytest.fail(f"no {cls.__name__} inside _roots(): build one into a root")
        return found[cls]

    return pick


def _fixed(value):
    """What must not move: the printed form, the hash and every slot."""
    return repr(value), hash(value), [getattr(value, slot) for slot in _slots(type(value))]


def test_the_walk_finds_the_value_classes():
    known = {MaxInt, Chain, Bool, SetLattice, MapLattice, PairLattice, LexPair, LinearSum,
             MaxElements, Atom, Causal, DotSet, DotFun, DotMap, CausalContext}
    assert known <= set(VALUE_CLASSES)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_only_the_frozen_base_refuses_writes(cls):
    assert issubclass(cls, Frozen)
    for klass in cls.__mro__:
        if klass not in (Frozen, object):
            assert "__setattr__" not in vars(klass), klass
            assert "__delattr__" not in vars(klass), klass


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_every_slot_refuses_a_write(cls, sample):
    value = sample(cls)
    before = _fixed(value)
    for name in [*_slots(cls), "extra"]:
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)
    assert _fixed(value) == before


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_every_slot_refuses_a_delete(cls, sample):
    value = sample(cls)
    before = _fixed(value)
    for name in _slots(cls):
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
    assert _fixed(value) == before

"""The two shortcuts ``MapLattice`` takes on the strength of a promise,
checked rather than trusted.

* ``fixed_size`` (``lattice/base.py``): a class declaring it promises that
  every non-bottom value has one ``size_units()`` and one
  ``size_bytes()``.  ``MapLattice.join`` then leaves a
  rebound key out of its size lineage.  The declaring classes are found,
  not listed, by walking every concrete ``Lattice`` subclass ``repro``
  defines, as ``tests/test_immutability.py`` does.
* Aliased bindings (``lattice/map_lattice.py``): ``MapLattice.delta``
  drops a binding both sides hold as one object without asking the
  value.  The answer must be the one a decoded copy, which shares no
  object, gets.  (``x.delta(x)`` is ⊥ in every family:
  ``tests/test_lattice_properties.py``.)
"""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

import repro  # defines every lattice class the walk can find
from repro.codec import decode, encode
from repro.lattice import Bool, MapLattice, MaxInt
from repro.lattice.base import Lattice

from conftest import ALL_LATTICE_STRATEGIES


def _lattice_classes():
    found, stack = set(), [Lattice]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if not inspect.isabstract(cls) and cls.__module__.startswith("repro."):
            found.add(cls)
    return sorted(found, key=lambda cls: cls.__name__)


FIXED_SIZE = [cls for cls in _lattice_classes() if cls.fixed_size]


def _sizes(value: Lattice) -> tuple:
    return value.size_units(), value.size_bytes()


def test_the_walk_finds_the_declarations():
    assert {MaxInt, Bool} <= set(FIXED_SIZE)
    assert not MapLattice.fixed_size


@pytest.mark.parametrize("cls", FIXED_SIZE, ids=lambda cls: cls.__name__)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_fixed_size_class_sizes_every_value_alike(cls, data):
    if cls.__name__ not in ALL_LATTICE_STRATEGIES:
        pytest.fail(f"{cls.__name__} declares fixed_size but conftest has no strategy for it")
    values = data.draw(st.lists(ALL_LATTICE_STRATEGIES[cls.__name__], min_size=2, max_size=6))
    sizes = {_sizes(value) for value in values if not value.is_bottom}
    assert len(sizes) <= 1


MAP_FAMILIES = sorted(family for family in ALL_LATTICE_STRATEGIES if family.startswith("MapLattice"))


@st.composite
def aliased_pairs(draw):
    """``(a, b)`` from one map family, ``b`` holding some of ``a``'s value objects."""
    strategy = ALL_LATTICE_STRATEGIES[draw(st.sampled_from(MAP_FAMILIES))]
    a, other = draw(strategy), draw(strategy)
    shared = draw(st.sets(st.sampled_from(sorted(a.entries)))) if a.entries else set()
    b = MapLattice({**other.entries, **{key: a.entries[key] for key in shared}})
    return a, b


@settings(max_examples=200, deadline=None)
@given(aliased_pairs())
def test_delta_against_shared_objects_equals_delta_against_a_decoded_copy(pair):
    a, b = pair
    copy = decode(encode(b))
    assert not any(copy.entries[key] is value for key, value in b.entries.items())
    aliased, reference = a.delta(b), a.delta(copy)
    assert aliased == reference
    assert _sizes(aliased) == _sizes(reference)

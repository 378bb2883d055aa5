"""Wire codec: round-trips, canonical bytes, and malformed-input safety.

Three layers of guarantee:

* **round-trip** — ``decode(encode(x)) == x`` for every lattice family
  in the library, hypothesis-driven (grow-only constructs from the
  shared strategies, causal states from random executions);
* **canonical form** — equal values encode to identical bytes, however
  they were constructed (collections are sorted before encoding);
* **robustness** — truncated or corrupted inputs raise
  :class:`~repro.codec.CodecError`, never return garbage values.
"""

import pytest
from hypothesis import given, strategies as st

from repro.causal import Atom, AWSet, CausalMVRegister, CCounter, Dot, CausalContext
from repro.codec import (
    CodecError,
    Cursor,
    UnsupportedType,
    decode,
    encode,
    read_atom,
    read_svarint,
    read_uvarint,
    write_atom,
    write_svarint,
    write_uvarint,
)
from repro.lattice import LexPair, LinearSum, MapLattice, MaxElements, MaxInt, SetLattice

from conftest import ALL_LATTICE_STRATEGIES

SERIALIZABLE_FAMILIES = sorted(set(ALL_LATTICE_STRATEGIES) - {"MaxElements"})

serializable_values = st.sampled_from(SERIALIZABLE_FAMILIES).flatmap(
    lambda family: ALL_LATTICE_STRATEGIES[family]
)


# ---------------------------------------------------------------------------
# Varints and atoms.
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**80))
def test_uvarint_roundtrip(value):
    out = bytearray()
    write_uvarint(out, value)
    assert read_uvarint(Cursor(bytes(out))) == value


@given(st.integers(min_value=-(2**70), max_value=2**70))
def test_svarint_roundtrip(value):
    out = bytearray()
    write_svarint(out, value)
    assert read_svarint(Cursor(bytes(out))) == value


def test_uvarint_rejects_negative():
    with pytest.raises(CodecError):
        write_uvarint(bytearray(), -1)


atoms = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=20),
        st.binary(max_size=20),
    ),
    lambda children: st.tuples(children, children),
    max_leaves=6,
)


@given(atoms)
def test_atom_roundtrip(value):
    out = bytearray()
    write_atom(out, value)
    assert read_atom(Cursor(bytes(out))) == value


def test_atom_rejects_unsupported_payloads():
    with pytest.raises(UnsupportedType):
        write_atom(bytearray(), object())


# ---------------------------------------------------------------------------
# Lattice round-trips.
# ---------------------------------------------------------------------------


@given(serializable_values)
def test_lattice_roundtrip(value):
    recovered = decode(encode(value))
    assert recovered == value
    assert type(recovered) is type(value)


@given(serializable_values)
def test_equal_values_encode_identically(value):
    """Canonical bytes: re-encoding a decoded value is a fixed point."""
    first = encode(value)
    assert encode(decode(first)) == first


def test_map_encoding_is_order_independent():
    forward = MapLattice({"a": MaxInt(1), "b": MaxInt(2)})
    backward = MapLattice({"b": MaxInt(2), "a": MaxInt(1)})
    assert encode(forward) == encode(backward)


def test_lex_and_pair_encodings_differ():
    from repro.lattice import PairLattice

    pair = PairLattice(MaxInt(1), MaxInt(2))
    lex = LexPair(MaxInt(1), MaxInt(2))
    assert encode(pair) != encode(lex)
    assert decode(encode(lex)) == lex


def test_linear_sum_roundtrip_both_sides():
    left = LinearSum.left(MaxInt(3))
    right = LinearSum.right(SetLattice({"x"}), left_bottom=MaxInt(0))
    assert decode(encode(left)) == left
    assert decode(encode(right)) == right


def test_max_elements_is_rejected():
    antichain = MaxElements({2, 3}, dominates=lambda x, y: x % y == 0)
    with pytest.raises(UnsupportedType):
        encode(antichain)


# ---------------------------------------------------------------------------
# Causal round-trips.
# ---------------------------------------------------------------------------


def _churned_awset():
    a, b = AWSet("A"), AWSet("B")
    for i in range(6):
        a.add(f"e{i}")
        b.add(f"e{i + 3}")
    b.merge(a)
    for i in range(0, 6, 2):
        b.remove(f"e{i}")
    a.merge(b)
    return a.state


def test_awset_state_roundtrip():
    state = _churned_awset()
    recovered = decode(encode(state))
    assert recovered == state
    assert recovered.store == state.store
    assert recovered.context == state.context


def test_awset_delta_roundtrip():
    a = AWSet("A")
    a.add("x")
    delta = a.remove("x")  # context-only payload
    assert decode(encode(delta)) == delta


def test_mvregister_roundtrip_preserves_payloads():
    r = CausalMVRegister("A")
    r.write(("tuple", 1, None))
    assert decode(encode(r.state)) == r.state


def test_ccounter_roundtrip():
    c = CCounter("A")
    c.increment(41)
    c.increment()
    assert decode(encode(c.state)) == c.state


def test_atom_lattice_roundtrip():
    assert decode(encode(Atom("payload"))) == Atom("payload")
    assert decode(encode(Atom())).is_bottom


def test_context_cloud_survives():
    from repro.causal import Causal, DotSet

    context = CausalContext.from_dots([Dot("A", 1), Dot("A", 5), Dot("B", 2)])
    state = Causal(DotSet([Dot("A", 5)]), context)
    recovered = decode(encode(state))
    assert recovered == state
    assert recovered.context.cloud == context.cloud


def test_join_of_decoded_equals_decoded_join():
    """The codec commutes with the lattice structure."""
    a, b = AWSet("A"), AWSet("B")
    a.add("x")
    b.add("y")
    direct = a.state.join(b.state)
    via_wire = decode(encode(a.state)).join(decode(encode(b.state)))
    assert via_wire == direct


# ---------------------------------------------------------------------------
# Robustness.
# ---------------------------------------------------------------------------


def test_empty_input_is_rejected():
    with pytest.raises(CodecError):
        decode(b"")


def test_unknown_tag_is_rejected():
    with pytest.raises(CodecError):
        decode(b"\xff")


def test_trailing_bytes_are_rejected():
    payload = encode(MaxInt(7)) + b"\x00"
    with pytest.raises(CodecError, match="trailing"):
        decode(payload)


@given(st.sampled_from(SERIALIZABLE_FAMILIES).flatmap(
    lambda family: ALL_LATTICE_STRATEGIES[family]
), st.integers(min_value=1, max_value=8))
def test_truncation_never_returns_a_value(value, cut):
    payload = encode(value)
    if len(payload) <= cut:
        return
    with pytest.raises(CodecError):
        decode(payload[:-cut])


def test_overlong_varint_is_rejected():
    with pytest.raises(CodecError, match="too long"):
        read_uvarint(Cursor(b"\x80" * 30))


@given(st.binary(max_size=64))
def test_random_bytes_never_crash_the_decoder(junk):
    """Arbitrary input either decodes or raises a ValueError family error.

    (CodecError is a ValueError; a malformed string payload surfaces as
    UnicodeDecodeError, also a ValueError.  Recursion is bounded by the
    input length, so no junk can take the decoder down.)
    """
    try:
        decode(junk)
    except (CodecError, ValueError):
        pass


@given(serializable_values, st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=10**6))
def test_single_byte_corruption_never_crashes(value, replacement, position):
    payload = bytearray(encode(value))
    if not payload:
        return
    index = position % len(payload)
    payload[index] = replacement
    try:
        recovered = decode(bytes(payload))
    except CodecError:
        return
    # A lucky corruption may still parse — it must yield a lattice value
    # (possibly a semantically different one; integrity beyond parsing
    # is the transport's concern, e.g. a checksum).
    from repro.lattice.base import Lattice

    assert isinstance(recovered, Lattice)

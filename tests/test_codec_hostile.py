"""Hostile input: whatever the bytes, the codec answers with a value or ``CodecError``.

The corpus is the golden tables of ``test_codec_golden.py`` — every
atom type, lattice tag, dot-store shape and wire kind — damaged four
ways: cut short, one byte substituted, a count or length inflated past
the input, and extended by a byte.  A decoder that lets ``IndexError``,
``struct.error``, ``UnicodeDecodeError``, ``RecursionError``,
``MemoryError`` or ``OverflowError`` through fails here: the transports
and the WAL only know how to handle :class:`~repro.codec.CodecError`.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codec import (
    MAX_NESTING,
    CodecError,
    Cursor,
    decode,
    decode_message,
    encode,
    encode_message,
    read_uvarint,
    write_uvarint,
)

from test_codec_golden import FRAMES, GOLDEN

BLOBS = [bytes.fromhex(hexes.replace(" ", "")) for _, _, hexes in GOLDEN]
ENVELOPES = [bytes.fromhex(hexes) for _, _, hexes, _, _ in FRAMES]


def uvarint(value: int) -> bytes:
    out = bytearray()
    write_uvarint(out, value)
    return bytes(out)


def envelope(payload_section: bytes, meta_section: bytes) -> bytes:
    return (
        uvarint(len(payload_section)) + payload_section
        + uvarint(len(meta_section)) + meta_section
    )


def sections(data: bytes):
    cur = Cursor(data)
    return cur.take(read_uvarint(cur)), cur.take(read_uvarint(cur))


# ---------------------------------------------------------------------------
# Cut short.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("blob", BLOBS, ids=[g[0] for g in GOLDEN])
def test_every_strict_prefix_of_a_blob_is_rejected(blob):
    for cut in range(len(blob)):
        with pytest.raises(CodecError):
            decode(blob[:cut])


@pytest.mark.parametrize("data", ENVELOPES, ids=[f[0] for f in FRAMES])
def test_every_strict_prefix_of_a_frame_is_rejected(data):
    for cut in range(len(data)):
        with pytest.raises(CodecError):
            decode_message(data[:cut])


# ---------------------------------------------------------------------------
# One byte substituted.
# ---------------------------------------------------------------------------


def _substitute(data: bytes, position: int, byte: int) -> bytes:
    index = position % len(data)
    return data[:index] + bytes((byte,)) + data[index + 1 :]


def substituted(corpus):
    return st.builds(
        _substitute,
        st.sampled_from(corpus),
        st.integers(min_value=0, max_value=10**4),
        st.integers(min_value=0, max_value=255),
    )


@given(substituted(BLOBS))
def test_a_substituted_byte_in_a_blob_decodes_canonically_or_is_rejected(data):
    try:
        value = decode(data)
    except CodecError:
        return
    # Compared as bytes: a substitution can make a float a NaN.
    again = encode(value)
    assert encode(decode(again)) == again


@given(substituted(ENVELOPES))
def test_a_substituted_byte_in_a_frame_decodes_canonically_or_is_rejected(data):
    try:
        message = decode_message(data)
    except CodecError:
        return
    again = encode_message(message)
    assert encode_message(decode_message(again)) == again


def test_fingerprints_that_could_not_be_sent_on_are_rejected():
    # kv-diff, two fingerprints, the second an empty str: decodable atom by
    # atom, but the writer orders fingerprints as byte strings.
    meta = b"\x0a\x00\x00\x02\x06\x01\x01\x05\x00"
    with pytest.raises(CodecError, match="byte strings"):
        decode_message(envelope(b"", meta))


# ---------------------------------------------------------------------------
# Counts and lengths larger than what remains.
# ---------------------------------------------------------------------------

HUGE = [uvarint(5), uvarint(2**31), uvarint(2**63), uvarint(2**100)]

#: (what, bytes up to the declared number, a few bytes after it)
SIZED = [
    ("str length", b"\x21\x01\x05", b"abc"),
    ("bytes length", b"\x21\x01\x06", b"abc"),
    ("tuple count", b"\x21\x01\x07", b"\x00\x00"),
    ("set count", b"\x13", b"\x00\x00"),
    ("map count", b"\x14", b"\x00\x10"),
    ("dotset count", b"\x20\x01", b"\x00\x01"),
    ("dotfun count", b"\x20\x02", b"\x00\x01"),
    ("dotmap count", b"\x20\x03", b"\x00\x01"),
    ("context vector count", b"\x20\x01\x00", b"\x00\x01"),
    ("context cloud count", b"\x20\x01\x00\x00", b"\x00\x01"),
]


@pytest.mark.parametrize("what,head,tail", SIZED, ids=[s[0] for s in SIZED])
@pytest.mark.parametrize("number", HUGE, ids=["5", "2^31", "2^63", "2^100"])
def test_an_inflated_count_or_length_is_rejected_unsized(what, head, tail, number):
    with pytest.raises(CodecError, match="exceeds|expected"):
        decode(head + number + tail)


#: (what, payload section, metadata section up to the declared number)
SIZED_FRAMES = [
    ("digest vector", b"", b"\x03\x00\x00\x00"),
    ("deltas", b"", b"\x04\x00\x00"),
    ("ops", b"", b"\x05\x00\x00"),
    ("mt-node", b"", b"\x06\x00\x00"),
    ("mt-leaves buckets", b"", b"\x07\x00\x00"),
    ("mt-leaves leaves", b"", b"\x07\x00\x00\x01\x05\x00"),
    ("mt-leaves blob length", b"ab", b"\x07\x00\x00\x01\x05\x00\x01\x06\x00"),
    ("kv-diff fingerprints", b"", b"\x0a\x00\x00"),
    ("kv-batch entries", b"", b"\x0c\x00\x00"),
    ("kv-handoff-segment bodies", b"", b"\x0e\x00\x00"),
    ("kv-handoff-segment body length", b"ab", b"\x0e\x00\x00\x01"),
]


@pytest.mark.parametrize("what,payload,meta", SIZED_FRAMES, ids=[s[0] for s in SIZED_FRAMES])
@pytest.mark.parametrize("number", HUGE, ids=["5", "2^31", "2^63", "2^100"])
def test_an_inflated_count_or_length_in_a_frame_is_rejected_unsized(
    what, payload, meta, number
):
    with pytest.raises(CodecError, match="exceeds|expected"):
        decode_message(envelope(payload, meta + number + b"\x00"))


@pytest.mark.parametrize("number", HUGE[1:], ids=["2^31", "2^63", "2^100"])
def test_an_inflated_section_length_is_rejected_unsized(number):
    with pytest.raises(CodecError, match="expected"):
        decode_message(number + b"\x00\x00")
    with pytest.raises(CodecError, match="expected"):
        decode_message(b"\x00" + number + b"\x00")


# ---------------------------------------------------------------------------
# Extended by a byte.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("blob", BLOBS, ids=[g[0] for g in GOLDEN])
def test_a_byte_after_a_value_is_rejected(blob):
    with pytest.raises(CodecError, match="trailing bytes after lattice value"):
        decode(blob + b"\x00")


@pytest.mark.parametrize("data", ENVELOPES, ids=[f[0] for f in FRAMES])
def test_a_byte_after_a_section_or_an_envelope_is_rejected(data):
    payload_section, meta_section = sections(data)
    with pytest.raises(CodecError, match="trailing bytes after message envelope"):
        decode_message(data + b"\x00")
    with pytest.raises(CodecError, match="trailing bytes inside message sections"):
        decode_message(envelope(payload_section + b"\x00", meta_section))
    with pytest.raises(CodecError, match="trailing bytes inside message sections"):
        decode_message(envelope(payload_section, meta_section + b"\x00"))


# ---------------------------------------------------------------------------
# Nested past the cap.
# ---------------------------------------------------------------------------


def nested_tuple(depth: int) -> bytes:
    """A set holding one ``depth``-deep tuple atom."""
    return bytes([0x13, 0x01]) + bytes([0x07, 0x01]) * depth + b"\x00"


DEEP = {
    "tuple atoms": nested_tuple(5000),
    "lexpairs": bytes([0x16]) * 5000 + b"\x10\x01",
    "maps": bytes([0x14, 0x01, 0x00]) * 5000 + b"\x10\x01",
    "dot maps": bytes([0x20]) + bytes([0x03, 0x01, 0x00]) * 5000 + b"\x01\x00\x00\x00",
    "dot funs": bytes([0x20, 0x02, 0x01, 0x00, 0x01]) * 5000 + b"\x10\x01",
}


@pytest.mark.parametrize("blob", DEEP.values(), ids=DEEP.keys())
def test_deep_nesting_is_a_codec_error_not_a_recursion_error(blob):
    with pytest.raises(CodecError, match="nesting too deep"):
        decode(blob)
    # The same blob as the δ of a keyed-delta inside a kv-batch.
    batch = envelope(blob, b"\x0c\x00\x00\x01\x00" + b"\x02\x00\x00")
    with pytest.raises(CodecError, match="nesting too deep"):
        decode_message(batch)


def test_deeply_nested_batches_are_a_codec_error():
    meta = b"\x0c\x00\x00\x01\x00" * 5000 + b"\x07\x00\x00\x00"
    with pytest.raises(CodecError, match="nesting too deep"):
        decode_message(envelope(b"", meta))


def test_the_cap_is_exact():
    assert encode(decode(nested_tuple(MAX_NESTING))) == nested_tuple(MAX_NESTING)
    with pytest.raises(CodecError, match="nesting too deep"):
        decode(nested_tuple(MAX_NESTING + 1))

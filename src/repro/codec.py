"""Binary wire codec for lattice states, deltas, and protocol messages.

The evaluation harness *counts* serialized sizes through
:class:`~repro.sizes.SizeModel`; a deployable library must also
actually produce the bytes.  This module is a compact, dependency-free
binary format covering every lattice shape in the library — the
grow-only constructs, the composition constructs, and the causal
(dot-store) family — with a round-trip guarantee::

    decode(encode(x)) == x

On top of the lattice codec, :func:`encode_message` /
:func:`decode_message` frame whole protocol messages (every wire
``kind`` the synchronizers and the kv store emit) as two-section
envelopes that keep the paper's payload/metadata split measurable on a
real transport; see the wire-envelope section below.

Format: one tag byte per node, unsigned LEB128 varints for lengths and
naturals, ZigZag-LEB128 for signed integers, UTF-8 for strings.
Collections are sorted before encoding, so equal lattice values always
produce identical bytes — encodings can be compared, hashed, and
deduplicated (handy for δ-buffer persistence and content-addressed
stores).

Atoms (set elements, map keys, register payloads) may be strings,
byte strings, signed integers, floats, booleans, ``None``, or (nested)
tuples of these.  Two constructs cannot round-trip and are rejected
with :class:`UnsupportedType`: :class:`~repro.lattice.maximals.
MaxElements` (its dominance order is an arbitrary function) and
:class:`~repro.lattice.primitives.Chain` over non-atom carriers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from io import BytesIO
from typing import Any, BinaryIO, Callable, Dict, Tuple

from repro.causal.atom import Atom
from repro.causal.causal import Causal
from repro.causal.dots import CausalContext, Dot
from repro.causal.stores import DotFun, DotMap, DotSet, DotStore
from repro.lattice.base import Lattice
from repro.lattice.lexicographic import LexPair
from repro.lattice.linear_sum import LinearSum
from repro.lattice.map_lattice import MapLattice
from repro.lattice.primitives import Bool, Chain, MaxInt
from repro.lattice.product import PairLattice
from repro.lattice.set_lattice import SetLattice


class CodecError(ValueError):
    """Malformed input or a violated format invariant."""


class UnsupportedType(TypeError):
    """The value contains something the wire format cannot represent."""


# ---------------------------------------------------------------------------
# Varints.
# ---------------------------------------------------------------------------


def write_uvarint(out: BinaryIO, value: int) -> None:
    """Unsigned LEB128."""
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def read_uvarint(data: BinaryIO) -> int:
    result = 0
    shift = 0
    while True:
        chunk = data.read(1)
        if not chunk:
            raise CodecError("truncated varint")
        byte = chunk[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
        if shift > 140:  # 20 continuation bytes ≈ 2^140: junk, not data
            raise CodecError("varint too long")


def write_svarint(out: BinaryIO, value: int) -> None:
    """ZigZag-mapped signed LEB128 (exact for arbitrary precision)."""
    write_uvarint(out, value * 2 if value >= 0 else -value * 2 - 1)


def read_svarint(data: BinaryIO) -> int:
    raw = read_uvarint(data)
    return raw // 2 if raw % 2 == 0 else -(raw + 1) // 2


# ---------------------------------------------------------------------------
# Atoms (plain Python payloads).
# ---------------------------------------------------------------------------

_ATOM_NONE = 0x00
_ATOM_FALSE = 0x01
_ATOM_TRUE = 0x02
_ATOM_INT = 0x03
_ATOM_FLOAT = 0x04
_ATOM_STR = 0x05
_ATOM_BYTES = 0x06
_ATOM_TUPLE = 0x07


def write_atom(out: BinaryIO, value: Any) -> None:
    """Encode a plain payload (element, key, register value)."""
    if value is None:
        out.write(bytes((_ATOM_NONE,)))
    elif value is False:
        out.write(bytes((_ATOM_FALSE,)))
    elif value is True:
        out.write(bytes((_ATOM_TRUE,)))
    elif isinstance(value, int):
        out.write(bytes((_ATOM_INT,)))
        write_svarint(out, value)
    elif isinstance(value, float):
        out.write(bytes((_ATOM_FLOAT,)))
        out.write(struct.pack(">d", value))
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.write(bytes((_ATOM_STR,)))
        write_uvarint(out, len(encoded))
        out.write(encoded)
    elif isinstance(value, bytes):
        out.write(bytes((_ATOM_BYTES,)))
        write_uvarint(out, len(value))
        out.write(value)
    elif isinstance(value, tuple):
        out.write(bytes((_ATOM_TUPLE,)))
        write_uvarint(out, len(value))
        for part in value:
            write_atom(out, part)
    else:
        raise UnsupportedType(f"cannot encode payload of type {type(value).__name__}")


def read_atom(data: BinaryIO) -> Any:
    chunk = data.read(1)
    if not chunk:
        raise CodecError("truncated atom")
    tag = chunk[0]
    if tag == _ATOM_NONE:
        return None
    if tag == _ATOM_FALSE:
        return False
    if tag == _ATOM_TRUE:
        return True
    if tag == _ATOM_INT:
        return read_svarint(data)
    if tag == _ATOM_FLOAT:
        packed = data.read(8)
        if len(packed) != 8:
            raise CodecError("truncated float")
        return struct.unpack(">d", packed)[0]
    if tag == _ATOM_STR:
        length = read_uvarint(data)
        return _read_exact(data, length).decode("utf-8")
    if tag == _ATOM_BYTES:
        length = read_uvarint(data)
        return _read_exact(data, length)
    if tag == _ATOM_TUPLE:
        length = read_uvarint(data)
        return tuple(read_atom(data) for _ in range(length))
    raise CodecError(f"unknown atom tag 0x{tag:02x}")


def _read_exact(data: BinaryIO, length: int) -> bytes:
    chunk = data.read(length)
    if len(chunk) != length:
        raise CodecError(f"expected {length} bytes, got {len(chunk)}")
    return chunk


def _atom_sort_key(value: Any):
    """Deterministic ordering over heterogeneous atoms."""
    return (type(value).__name__, repr(value))


# ---------------------------------------------------------------------------
# Lattice values.
# ---------------------------------------------------------------------------

_TAG_MAXINT = 0x10
_TAG_BOOL = 0x11
_TAG_CHAIN = 0x12
_TAG_SET = 0x13
_TAG_MAP = 0x14
_TAG_PAIR = 0x15
_TAG_LEX = 0x16
_TAG_SUM = 0x17
_TAG_CAUSAL = 0x20
_TAG_LATTICE_ATOM = 0x21

_STORE_DOTSET = 0x01
_STORE_DOTFUN = 0x02
_STORE_DOTMAP = 0x03


def encode(value: Lattice) -> bytes:
    """Serialize a lattice value to canonical bytes."""
    out = BytesIO()
    _write_lattice(out, value)
    return out.getvalue()


def decode(data: bytes) -> Lattice:
    """Inverse of :func:`encode`; raises :class:`CodecError` on junk.

    Any malformed input surfaces as :class:`CodecError` — including
    corruption that parses structurally but violates a lattice
    constructor's invariants (e.g. a Chain value below its bottom).
    """
    stream = BytesIO(data)
    try:
        value = _read_lattice(stream)
    except CodecError:
        raise
    except (TypeError, ValueError) as exc:
        raise CodecError(f"malformed lattice value: {exc}") from exc
    trailing = stream.read(1)
    if trailing:
        raise CodecError("trailing bytes after lattice value")
    return value


def _write_lattice(out: BinaryIO, value: Lattice) -> None:
    if isinstance(value, MaxInt):
        out.write(bytes((_TAG_MAXINT,)))
        write_uvarint(out, value.value)
    elif isinstance(value, Bool):
        out.write(bytes((_TAG_BOOL, 1 if value.value else 0)))
    elif isinstance(value, Chain):
        out.write(bytes((_TAG_CHAIN,)))
        write_atom(out, value.value)
        write_atom(out, value.bottom_value)
    elif isinstance(value, SetLattice):
        out.write(bytes((_TAG_SET,)))
        write_uvarint(out, len(value.elements))
        for element in sorted(value.elements, key=_atom_sort_key):
            write_atom(out, element)
    elif isinstance(value, MapLattice):
        out.write(bytes((_TAG_MAP,)))
        entries = sorted(value.entries.items(), key=lambda kv: _atom_sort_key(kv[0]))
        write_uvarint(out, len(entries))
        for key, bound in entries:
            write_atom(out, key)
            _write_lattice(out, bound)
    elif isinstance(value, LexPair):
        # Checked before PairLattice in case of subclassing; the two are
        # distinct classes here but share shape.
        out.write(bytes((_TAG_LEX,)))
        _write_lattice(out, value.first)
        _write_lattice(out, value.second)
    elif isinstance(value, PairLattice):
        out.write(bytes((_TAG_PAIR,)))
        _write_lattice(out, value.first)
        _write_lattice(out, value.second)
    elif isinstance(value, LinearSum):
        out.write(bytes((_TAG_SUM,)))
        out.write(bytes((0 if value.tag == "Left" else 1,)))
        _write_lattice(out, value.value)
        _write_lattice(out, value.left_bottom)
    elif isinstance(value, Atom):
        out.write(bytes((_TAG_LATTICE_ATOM,)))
        if value.is_bottom:
            out.write(bytes((0,)))
        else:
            out.write(bytes((1,)))
            write_atom(out, value.value)
    elif isinstance(value, Causal):
        out.write(bytes((_TAG_CAUSAL,)))
        _write_store(out, value.store)
        _write_context(out, value.context)
    else:
        raise UnsupportedType(
            f"no wire format for {type(value).__name__} "
            "(MaxElements and custom lattices are not serializable)"
        )


def _read_lattice(data: BinaryIO) -> Lattice:
    chunk = data.read(1)
    if not chunk:
        raise CodecError("truncated lattice value")
    tag = chunk[0]
    if tag == _TAG_MAXINT:
        return MaxInt(read_uvarint(data))
    if tag == _TAG_BOOL:
        return Bool(bool(_read_exact(data, 1)[0]))
    if tag == _TAG_CHAIN:
        value = read_atom(data)
        bottom = read_atom(data)
        return Chain(value, bottom=bottom)
    if tag == _TAG_SET:
        count = read_uvarint(data)
        return SetLattice(read_atom(data) for _ in range(count))
    if tag == _TAG_MAP:
        count = read_uvarint(data)
        entries = {}
        for _ in range(count):
            key = read_atom(data)
            entries[key] = _read_lattice(data)
        return MapLattice(entries)
    if tag == _TAG_LEX:
        return LexPair(_read_lattice(data), _read_lattice(data))
    if tag == _TAG_PAIR:
        return PairLattice(_read_lattice(data), _read_lattice(data))
    if tag == _TAG_SUM:
        side = _read_exact(data, 1)[0]
        value = _read_lattice(data)
        left_bottom = _read_lattice(data)
        tag_name = "Left" if side == 0 else "Right"
        return LinearSum(tag_name, value, left_bottom=left_bottom)
    if tag == _TAG_LATTICE_ATOM:
        present = _read_exact(data, 1)[0]
        return Atom(read_atom(data)) if present else Atom()
    if tag == _TAG_CAUSAL:
        store = _read_store(data)
        context = _read_context(data)
        return Causal(store, context)
    raise CodecError(f"unknown lattice tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# Causal pieces.
# ---------------------------------------------------------------------------


def _write_dot(out: BinaryIO, dot: Dot) -> None:
    write_atom(out, dot.replica)
    write_uvarint(out, dot.counter)


def _read_dot(data: BinaryIO) -> Dot:
    return Dot(read_atom(data), read_uvarint(data))


def _dot_sort_key(dot: Dot):
    return (_atom_sort_key(dot.replica), dot.counter)


def _write_context(out: BinaryIO, context: CausalContext) -> None:
    compact = sorted(context.compact.items(), key=lambda kv: _atom_sort_key(kv[0]))
    write_uvarint(out, len(compact))
    for replica, top in compact:
        write_atom(out, replica)
        write_uvarint(out, top)
    cloud = sorted(context.cloud, key=_dot_sort_key)
    write_uvarint(out, len(cloud))
    for dot in cloud:
        _write_dot(out, dot)


def _read_context(data: BinaryIO) -> CausalContext:
    compact = {}
    for _ in range(read_uvarint(data)):
        replica = read_atom(data)
        compact[replica] = read_uvarint(data)
    cloud = [_read_dot(data) for _ in range(read_uvarint(data))]
    return CausalContext(compact, cloud)


def _write_store(out: BinaryIO, store: DotStore) -> None:
    if isinstance(store, DotSet):
        out.write(bytes((_STORE_DOTSET,)))
        dots = sorted(store.dots(), key=_dot_sort_key)
        write_uvarint(out, len(dots))
        for dot in dots:
            _write_dot(out, dot)
    elif isinstance(store, DotFun):
        out.write(bytes((_STORE_DOTFUN,)))
        entries = sorted(store.items(), key=lambda kv: _dot_sort_key(kv[0]))
        write_uvarint(out, len(entries))
        for dot, bound in entries:
            _write_dot(out, dot)
            _write_lattice(out, bound)
    elif isinstance(store, DotMap):
        out.write(bytes((_STORE_DOTMAP,)))
        entries = sorted(store.items(), key=lambda kv: _atom_sort_key(kv[0]))
        write_uvarint(out, len(entries))
        for key, sub in entries:
            write_atom(out, key)
            _write_store(out, sub)
    else:  # pragma: no cover - the three shapes are closed
        raise UnsupportedType(f"unknown dot store {type(store).__name__}")


def _read_store(data: BinaryIO) -> DotStore:
    tag = _read_exact(data, 1)[0]
    if tag == _STORE_DOTSET:
        return DotSet(_read_dot(data) for _ in range(read_uvarint(data)))
    if tag == _STORE_DOTFUN:
        entries = {}
        for _ in range(read_uvarint(data)):
            dot = _read_dot(data)
            entries[dot] = _read_lattice(data)
        return DotFun(entries)
    if tag == _STORE_DOTMAP:
        entries = {}
        for _ in range(read_uvarint(data)):
            key = read_atom(data)
            entries[key] = _read_store(data)
        return DotMap(entries)
    raise CodecError(f"unknown dot-store tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# Wire envelopes for protocol messages.
#
# The synchronizers describe what they ship as a
# :class:`repro.sync.protocol.Message`: a ``kind`` discriminator, a
# protocol-specific payload object, and the *modelled* size accounting
# the simulator records.  The envelope codec below turns that into
# actual bytes for a real transport — and back — with the round-trip
# guarantee ``decode_message(encode_message(m)).payload == m.payload``
# for every wire kind the protocols emit.
#
# An envelope keeps the payload and the synchronization metadata in two
# separate sections, so measured wire bytes preserve the paper's
# payload/metadata split: lattice content (full states, δ-groups,
# operation deltas, Merkle leaf blobs) goes to the payload section,
# while version vectors, knowledge matrices, sequence numbers, causal
# clocks, digests, fingerprints, and all framing (kind tags, counts,
# lengths) go to the metadata section.  A decoded message therefore
# reports *measured* ``payload_bytes``/``metadata_bytes`` — what
# actually crossed the wire — while ``payload_units``/
# ``metadata_units`` travel verbatim in the envelope (they are the
# paper's machine-independent entry metric, not a byte count).
#
# Layout::
#
#     envelope := uvarint(len(payload_section)) payload_section
#                 uvarint(len(meta_section))    meta_section
#     meta_section starts with: uvarint(kind index)
#                               uvarint(payload_units)
#                               uvarint(metadata_units)
#
# Store-level framing (``kv-batch``) nests recursively:
# inner messages append to the same two sections, so the outer
# envelope's payload bytes are exactly the sum of the bundled lattice
# content.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WireFrame:
    """An encoded message envelope with its measured size split.

    ``payload_bytes + metadata_bytes == len(data)``: the metadata share
    includes the envelope framing (kind tag, unit counters, section
    lengths), which is the documented overhead a real transport pays on
    top of the size model's estimate.
    """

    data: bytes
    payload_bytes: int
    metadata_bytes: int

    @property
    def total_bytes(self) -> int:
        return len(self.data)


#: kind → (tag, writer, reader), filled by :func:`wire_kind` as the
#: readers below are defined.  The uvarint tag is part of the *envelope*
#: format, and envelopes only ever live on the wire between replicas of
#: one build — nothing persists them — so tags may be renumbered when a
#: kind is retired, as long as they stay dense.  What is stable across
#: builds is the *lattice* encoding (``encode``/``decode``): WAL records
#: and handoff segment bodies are ``encode(lattice)``, and the golden
#: vectors in ``tests/test_codec_golden.py`` pin those bytes.
_WIRE_REGISTRY: Dict[str, Tuple[int, Callable, Callable]] = {}


def wire_kind(kind: str, *, tag: int, writer: Callable) -> Callable:
    """Register the decorated reader and ``writer`` as ``kind``'s codec.

    One registration carries everything a kind needs — name, wire tag,
    both directions — so a kind that encodes but cannot decode (or the
    reverse) has no spelling.
    """

    def register(reader: Callable) -> Callable:
        if kind in _WIRE_REGISTRY:
            raise ValueError(f"wire kind {kind!r} registered twice")
        _WIRE_REGISTRY[kind] = (tag, writer, reader)
        return reader

    return register


def _write_wire_vector(out: BinaryIO, vector: dict) -> None:
    """A version vector: replica → counter, deterministically ordered."""
    entries = sorted(vector.items(), key=lambda kv: _atom_sort_key(kv[0]))
    write_uvarint(out, len(entries))
    for origin, counter in entries:
        write_atom(out, origin)
        write_uvarint(out, counter)


def _read_wire_vector(data: BinaryIO) -> dict:
    vector = {}
    for _ in range(read_uvarint(data)):
        origin = read_atom(data)
        vector[origin] = read_uvarint(data)
    return vector


def _write_state(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    _write_lattice(payload_out, payload)


# state-based: full lattice state
@wire_kind("state", tag=0, writer=_write_state)
# delta-based: one δ-group
@wire_kind("delta", tag=1, writer=_write_state)
# per-object delta-based: MapLattice of δ-groups
@wire_kind("keyed-delta", tag=2, writer=_write_state)
def _read_state(payload_in: BinaryIO, meta_in: BinaryIO):
    return _read_lattice(payload_in)


def _write_digest(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    if isinstance(payload, dict) and set(payload) == {"vector", "knowledge"}:
        # Scuttlebutt-GC: the vector plus the gossiped knowledge matrix.
        meta_out.write(b"\x01")
        _write_wire_vector(meta_out, payload["vector"])
        nodes = sorted(payload["knowledge"].items(), key=lambda kv: _atom_sort_key(kv[0]))
        write_uvarint(meta_out, len(nodes))
        for node, vector in nodes:
            write_atom(meta_out, node)
            _write_wire_vector(meta_out, vector)
    else:
        meta_out.write(b"\x00")
        _write_wire_vector(meta_out, payload)


# Scuttlebutt summary vector (± GC knowledge matrix)
@wire_kind("digest", tag=3, writer=_write_digest)
def _read_digest(payload_in: BinaryIO, meta_in: BinaryIO):
    variant = _read_exact(meta_in, 1)[0]
    vector = _read_wire_vector(meta_in)
    if variant == 0:
        return vector
    knowledge = {}
    for _ in range(read_uvarint(meta_in)):
        node = read_atom(meta_in)
        knowledge[node] = _read_wire_vector(meta_in)
    return {"vector": vector, "knowledge": knowledge}


def _write_versioned_deltas(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    write_uvarint(meta_out, len(payload))
    for (origin, seq), delta in payload:
        write_atom(meta_out, origin)
        write_uvarint(meta_out, seq)
        _write_lattice(payload_out, delta)


# Scuttlebutt reply: versioned deltas
@wire_kind("deltas", tag=4, writer=_write_versioned_deltas)
def _read_versioned_deltas(payload_in: BinaryIO, meta_in: BinaryIO):
    pairs = []
    for _ in range(read_uvarint(meta_in)):
        origin = read_atom(meta_in)
        seq = read_uvarint(meta_in)
        pairs.append(((origin, seq), _read_lattice(payload_in)))
    return pairs


def _write_ops(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    write_uvarint(meta_out, len(payload))
    for envelope in payload:
        write_atom(meta_out, envelope.origin)
        write_uvarint(meta_out, envelope.seq)
        _write_wire_vector(meta_out, envelope.clock)
        _write_lattice(payload_out, envelope.payload)


# op-based: causally-tagged operation envelopes
@wire_kind("ops", tag=5, writer=_write_ops)
def _read_ops(payload_in: BinaryIO, meta_in: BinaryIO):
    # Imported lazily: repro.sync pulls this module in through the
    # Merkle baseline, so a module-level import would be circular.
    from repro.sync.opbased import OpEnvelope

    envelopes = []
    for _ in range(read_uvarint(meta_in)):
        origin = read_atom(meta_in)
        seq = read_uvarint(meta_in)
        clock = _read_wire_vector(meta_in)
        envelopes.append(
            OpEnvelope(origin=origin, seq=seq, clock=clock, payload=_read_lattice(payload_in))
        )
    return envelopes


def _write_seqs(out: BinaryIO, seqs) -> None:
    write_uvarint(out, len(seqs))
    for seq in seqs:
        write_uvarint(out, seq)


def _read_seqs(data: BinaryIO) -> tuple:
    return tuple(read_uvarint(data) for _ in range(read_uvarint(data)))


def _write_delta_seq(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    group, covered = payload
    _write_lattice(payload_out, group)
    _write_seqs(meta_out, covered)


# acked delta-based: δ-group + covered seqs
@wire_kind("delta-seq", tag=6, writer=_write_delta_seq)
def _read_delta_seq(payload_in: BinaryIO, meta_in: BinaryIO):
    group = _read_lattice(payload_in)
    return (group, _read_seqs(meta_in))


def _write_delta_ack(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    _write_seqs(meta_out, payload)


# acked delta-based: acknowledged seqs
@wire_kind("delta-ack", tag=7, writer=_write_delta_ack)
def _read_delta_ack(payload_in: BinaryIO, meta_in: BinaryIO):
    return _read_seqs(meta_in)


def _write_trie_nodes(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    write_uvarint(meta_out, len(payload))
    for prefix, node_digest in payload:
        write_atom(meta_out, prefix)
        write_atom(meta_out, node_digest)


# Merkle descent: (prefix, digest) nodes
@wire_kind("mt-node", tag=8, writer=_write_trie_nodes)
def _read_trie_nodes(payload_in: BinaryIO, meta_in: BinaryIO):
    return tuple(
        (read_atom(meta_in), read_atom(meta_in)) for _ in range(read_uvarint(meta_in))
    )


def _write_trie_leaves(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    write_uvarint(meta_out, len(payload))
    for prefix, leaves in payload:
        write_atom(meta_out, prefix)
        write_uvarint(meta_out, len(leaves))
        for leaf_digest, blob in leaves:
            write_atom(meta_out, leaf_digest)
            # Leaf payloads are already codec-encoded irreducibles; the
            # blob is payload, its length prefix is framing.
            write_uvarint(meta_out, len(blob))
            payload_out.write(blob)


# Merkle bucket ship (expects complement reply)
@wire_kind("mt-leaves", tag=9, writer=_write_trie_leaves)
# Merkle bucket ship (final leg)
@wire_kind("mt-leaves-final", tag=10, writer=_write_trie_leaves)
def _read_trie_leaves(payload_in: BinaryIO, meta_in: BinaryIO):
    buckets = []
    for _ in range(read_uvarint(meta_in)):
        prefix = read_atom(meta_in)
        leaves = []
        for _ in range(read_uvarint(meta_in)):
            leaf_digest = read_atom(meta_in)
            blob = _read_exact(payload_in, read_uvarint(meta_in))
            leaves.append((leaf_digest, blob))
        buckets.append((prefix, tuple(leaves)))
    return tuple(buckets)


def _write_kv_digest(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    write_atom(meta_out, payload)


# store repair: root-hash divergence probe
@wire_kind("kv-digest", tag=11, writer=_write_kv_digest)
def _read_kv_digest(payload_in: BinaryIO, meta_in: BinaryIO):
    return read_atom(meta_in)


def _write_fingerprints(out: BinaryIO, fingerprints) -> None:
    write_uvarint(out, len(fingerprints))
    for entry in sorted(fingerprints):
        write_atom(out, entry)


def _read_fingerprints(data: BinaryIO) -> frozenset:
    return frozenset(read_atom(data) for _ in range(read_uvarint(data)))


def _write_kv_diff(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    _write_fingerprints(meta_out, payload)


# store repair: fingerprint-digest escalation
@wire_kind("kv-diff", tag=12, writer=_write_kv_diff)
def _read_kv_diff(payload_in: BinaryIO, meta_in: BinaryIO):
    return _read_fingerprints(meta_in)


def _write_kv_repair(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    delta, echo = payload
    if echo is None:
        meta_out.write(b"\x00")
    else:
        meta_out.write(b"\x01")
        _write_fingerprints(meta_out, echo)
    _write_lattice(payload_out, delta)


# store repair: (delta, echo digest | None)
@wire_kind("kv-repair", tag=13, writer=_write_kv_repair)
def _read_kv_repair(payload_in: BinaryIO, meta_in: BinaryIO):
    has_echo = _read_exact(meta_in, 1)[0]
    echo = _read_fingerprints(meta_in) if has_echo else None
    return (_read_lattice(payload_in), echo)


def _write_kv_batch(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    write_uvarint(meta_out, len(payload))
    for shard, inner in payload:
        write_uvarint(meta_out, shard)
        _write_message(inner, payload_out, meta_out)


# store framing: bundled (shard, message) pairs
@wire_kind("kv-batch", tag=14, writer=_write_kv_batch)
def _read_kv_batch(payload_in: BinaryIO, meta_in: BinaryIO):
    entries = []
    for _ in range(read_uvarint(meta_in)):
        shard = read_uvarint(meta_in)
        entries.append((shard, _read_message(payload_in, meta_in)))
    return tuple(entries)


def _write_kv_handoff_offer(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    root, size_hint = payload
    write_atom(meta_out, root)
    write_uvarint(meta_out, size_hint)


# rebalance: shard handoff announcement (root, size hint)
@wire_kind("kv-handoff-offer", tag=15, writer=_write_kv_handoff_offer)
def _read_kv_handoff_offer(payload_in: BinaryIO, meta_in: BinaryIO):
    root = read_atom(meta_in)
    return (root, read_uvarint(meta_in))


def _write_kv_handoff_segment(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    # Record bodies are already codec-encoded deltas straight off the
    # shard log; the bodies are payload, their length prefixes framing.
    write_uvarint(meta_out, len(payload))
    for body in payload:
        write_uvarint(meta_out, len(body))
        payload_out.write(body)


# rebalance: compacted WAL segment (encoded delta records)
@wire_kind("kv-handoff-segment", tag=16, writer=_write_kv_handoff_segment)
def _read_kv_handoff_segment(payload_in: BinaryIO, meta_in: BinaryIO):
    return tuple(
        _read_exact(payload_in, read_uvarint(meta_in))
        for _ in range(read_uvarint(meta_in))
    )


def _write_kv_handoff_ack(payload, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    complete, root = payload
    meta_out.write(b"\x01" if complete else b"\x00")
    if root is None:
        meta_out.write(b"\x00")
    else:
        meta_out.write(b"\x01")
        write_atom(meta_out, root)


# rebalance: receiver verdict (complete flag, replayed root)
@wire_kind("kv-handoff-ack", tag=17, writer=_write_kv_handoff_ack)
def _read_kv_handoff_ack(payload_in: BinaryIO, meta_in: BinaryIO):
    complete = bool(_read_exact(meta_in, 1)[0])
    has_root = _read_exact(meta_in, 1)[0]
    root = read_atom(meta_in) if has_root else None
    return (complete, root)


#: Registry of wire kinds, in tag order: the uvarint kind tag indexes
#: this tuple.  Complete by construction — every entry came with both
#: codec directions — and dense by the check below.
WIRE_KINDS = tuple(sorted(_WIRE_REGISTRY, key=lambda kind: _WIRE_REGISTRY[kind][0]))
if [_WIRE_REGISTRY[kind][0] for kind in WIRE_KINDS] != list(range(len(WIRE_KINDS))):
    raise ImportError("wire tags must be exactly 0..n-1, one kind each")
_WIRE_KIND_INDEX = {kind: index for index, kind in enumerate(WIRE_KINDS)}
_WIRE_CODECS = {
    kind: (writer, reader) for kind, (_, writer, reader) in _WIRE_REGISTRY.items()
}


def _write_message(message, payload_out: BinaryIO, meta_out: BinaryIO) -> None:
    try:
        index = _WIRE_KIND_INDEX[message.kind]
    except KeyError:
        raise UnsupportedType(
            f"no wire format for message kind {message.kind!r} "
            f"(known kinds: {', '.join(WIRE_KINDS)})"
        ) from None
    write_uvarint(meta_out, index)
    write_uvarint(meta_out, message.payload_units)
    write_uvarint(meta_out, message.metadata_units)
    writer, _ = _WIRE_CODECS[message.kind]
    writer(message.payload, payload_out, meta_out)


def _read_message(payload_in: BinaryIO, meta_in: BinaryIO):
    payload_start = payload_in.tell()
    meta_start = meta_in.tell()
    index = read_uvarint(meta_in)
    if index >= len(WIRE_KINDS):
        raise CodecError(f"unknown wire kind tag {index}")
    kind = WIRE_KINDS[index]
    payload_units = read_uvarint(meta_in)
    metadata_units = read_uvarint(meta_in)
    _, reader = _WIRE_CODECS[kind]
    try:
        payload = reader(payload_in, meta_in)
    except CodecError:
        raise
    except (TypeError, ValueError) as exc:
        raise CodecError(f"malformed {kind} payload: {exc}") from exc
    return _WireMessage(
        kind=kind,
        payload=payload,
        payload_units=payload_units,
        payload_bytes=payload_in.tell() - payload_start,
        metadata_bytes=meta_in.tell() - meta_start,
        metadata_units=metadata_units,
    )


def frame_message(message) -> WireFrame:
    """Encode a protocol message and report its measured size split.

    Messages are frozen and their payloads immutable, so the frame is a
    pure function of the message object — it is memoized on the message
    itself.  Synchronizers exploit this by *sharing* one message object
    across the destinations whose δ-group is identical: the bytes are
    produced once and every subsequent send (or retransmission) of the
    same object reuses them.
    """
    memo = getattr(message, "_frame_memo", None)
    if memo is not None:
        return memo
    payload_out = BytesIO()
    meta_out = BytesIO()
    _write_message(message, payload_out, meta_out)
    payload_section = payload_out.getvalue()
    meta_section = meta_out.getvalue()
    out = BytesIO()
    write_uvarint(out, len(payload_section))
    out.write(payload_section)
    write_uvarint(out, len(meta_section))
    out.write(meta_section)
    data = out.getvalue()
    frame = WireFrame(
        data=data,
        payload_bytes=len(payload_section),
        metadata_bytes=len(data) - len(payload_section),
    )
    # ``Message`` is a frozen dataclass without ``__slots__``; the memo
    # rides on the instance, invisible to equality and dataclasses.
    # repro: lint-ok[frozen-mutation] sanctioned memo: the frame is a pure function of the frozen message
    object.__setattr__(message, "_frame_memo", frame)
    return frame


def encode_message(message) -> bytes:
    """Serialize a protocol :class:`~repro.sync.protocol.Message`.

    Inverse: :func:`decode_message`.  The encoding covers every wire
    kind the library's synchronizers and the kv store emit (see
    :data:`WIRE_KINDS`); an unknown kind raises
    :class:`UnsupportedType`.
    """
    return frame_message(message).data


def decode_message(data: bytes):
    """Inverse of :func:`encode_message`.

    The returned message carries *measured* sizes: ``payload_bytes`` is
    the payload section's length and ``metadata_bytes`` is everything
    else in the envelope (metadata section plus framing), so
    ``total_bytes == len(data)`` always holds.  ``payload_units`` and
    ``metadata_units`` are the model metrics carried in the envelope.
    """
    stream = BytesIO(data)
    payload_section = _read_exact(stream, read_uvarint(stream))
    meta_section = _read_exact(stream, read_uvarint(stream))
    if stream.read(1):
        raise CodecError("trailing bytes after message envelope")
    payload_in = BytesIO(payload_section)
    meta_in = BytesIO(meta_section)
    message = _read_message(payload_in, meta_in)
    if payload_in.read(1) or meta_in.read(1):
        raise CodecError("trailing bytes inside message sections")
    return _replace(
        message,
        payload_bytes=len(payload_section),
        metadata_bytes=len(data) - len(payload_section),
    )


# Imported at the bottom on purpose: ``repro.sync`` pulls this module
# in while initializing (through the Merkle baseline), so importing the
# protocol Message at the top would be circular.
from dataclasses import replace as _replace  # noqa: E402

from repro.sync.protocol import Message as _WireMessage  # noqa: E402

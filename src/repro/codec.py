"""Binary wire codec for lattice states, deltas, and protocol messages.

The evaluation harness *counts* serialized sizes in the paper's
per-atom byte sizes (:mod:`repro.sizes`); a deployable library must
also actually produce the bytes.  This module is a compact, dependency-free
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

Implementation: one buffer representation in each direction.  Writers
append to a ``bytearray`` and find the writer of a node in a table keyed
by ``type(value)`` — ``_ATOM_WRITERS``, ``_LATTICE_WRITERS``,
``_STORE_WRITERS``, each listed in ``isinstance`` precedence order, so a
subclass falls back to the first listed class it is an instance of.
Collection order is decided in one place, ``_canonical``: sorted by the
``(type name, repr)`` of the atom (``_atom_sort_key``; dots add their
counter), except that zero or one item is written as found — the only
sizes at which iteration order cannot reach the bytes.  Readers walk the
``bytes`` with a :class:`Cursor`: a position checked against the end of
its section before every index and slice, a declared count checked
against the bytes that remain before any loop is sized by it
(:func:`read_count`), and a cap on nesting (:data:`MAX_NESTING`).  They
still build every value through its public constructor, so each
invariant check on outside input stays.  The cap is the reader's alone:
a value nested deeper than anything the library builds would encode and
then be refused.  The varint and atom primitives below are the only
ones in the tree — WAL records (``wal/log.py``), the peer handshake
(``net/framing.py``) and the client/control bodies (``serve/frames.py``)
are written and read with them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Collection, Dict, Iterable, Optional, Tuple

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


#: How many containers (tuple atoms, composite lattices, dot maps,
#: batched messages) a reader may be inside of at once.  Every shape the
#: library builds is a handful deep; outside input that nests further is
#: refused with :class:`CodecError` instead of exhausting the stack.
MAX_NESTING = 64


class Cursor:
    """A read position in ``data``: an integer that only moves forward.

    One cursor spans one section (a lattice blob, an envelope, one of an
    envelope's two sections), and every read is checked against its
    ``end`` before anything is indexed or sliced.
    """

    __slots__ = ("data", "pos", "end", "depth")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.end = len(data)
        self.depth = 0

    @property
    def remaining(self) -> int:
        return self.end - self.pos

    def byte(self) -> int:
        """The next byte: a flag or a sub-tag."""
        pos = self.pos
        if pos >= self.end:
            raise CodecError("expected 1 bytes, got 0")
        self.pos = pos + 1
        return self.data[pos]

    def take(self, length: int) -> bytes:
        """The next ``length`` bytes, checked before the slice is sized."""
        pos = self.pos
        if length > self.end - pos:
            raise CodecError(f"expected {length} bytes, got {self.end - pos}")
        self.pos = pos + length
        return self.data[pos : pos + length]

    def enter(self) -> None:
        """Step into a container; leaving is ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise CodecError("nesting too deep")


# ---------------------------------------------------------------------------
# Varints.
# ---------------------------------------------------------------------------


def write_uvarint(buf: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative {value}")
    while value > 0x7F:
        buf.append(value & 0x7F | 0x80)
        value >>= 7
    buf.append(value)


def read_uvarint(cur: Cursor) -> int:
    data, pos, end = cur.data, cur.pos, cur.end
    result = 0
    shift = 0
    while pos < end:
        byte = data[pos]
        pos += 1
        if byte < 0x80:
            cur.pos = pos
            return result | byte << shift
        result |= (byte & 0x7F) << shift
        shift += 7
        if shift > 140:  # 20 continuation bytes ≈ 2^140: junk, not data
            raise CodecError("varint too long")
    raise CodecError("truncated varint")


def write_svarint(buf: bytearray, value: int) -> None:
    """ZigZag-mapped signed LEB128 (exact for arbitrary precision)."""
    write_uvarint(buf, value * 2 if value >= 0 else -value * 2 - 1)


def read_svarint(cur: Cursor) -> int:
    raw = read_uvarint(cur)
    return raw // 2 if raw % 2 == 0 else -(raw + 1) // 2


def read_count(cur: Cursor) -> int:
    """A collection's declared element count.

    Every element takes at least one byte of the section its count was
    read from, so a count beyond what remains is refused here, before
    any loop or allocation is sized by it.
    """
    count = read_uvarint(cur)
    if count > cur.end - cur.pos:
        raise CodecError(f"count {count} exceeds the {cur.remaining} bytes that remain")
    return count


# ---------------------------------------------------------------------------
# Dispatch and canonical order, shared by atoms, lattices and dot stores.
# ---------------------------------------------------------------------------

Writer = Callable[[bytearray, Any], None]


def _inherited(table: Dict[type, Writer], value: Any) -> Optional[Writer]:
    """The writer a subclass instance falls back to.

    Writer tables are keyed by exact type and listed in ``isinstance``
    precedence order, so a subclass encodes as the first listed class it
    is an instance of.
    """
    for cls, writer in table.items():
        if isinstance(value, cls):
            return writer
    return None


def _atom_sort_key(value: Any) -> Tuple[str, str]:
    """Deterministic ordering over heterogeneous atoms."""
    return (type(value).__name__, repr(value))


def _entry_sort_key(entry: Tuple[Any, Any]) -> Tuple[str, str]:
    return _atom_sort_key(entry[0])


def _dot_sort_key(dot: Dot) -> Tuple[Tuple[str, str], int]:
    return (_atom_sort_key(dot.replica), dot.counter)


def _dot_entry_sort_key(entry: Tuple[Dot, Any]) -> Tuple[Tuple[str, str], int]:
    return _dot_sort_key(entry[0])


def _canonical(items: Collection, key: Callable[[Any], Any]) -> Iterable:
    """``items`` in the order they are encoded: sorted by ``key``.

    Fewer than two items have only one order, and most collections in a
    δ are that small.  Nothing else may skip the sort: set and dict
    iteration order follows the hash seed and the insertion history,
    neither of which is part of the value.
    """
    return sorted(items, key=key) if len(items) > 1 else items


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

_FLOAT = struct.Struct(">d")


def _write_atom_none(buf: bytearray, value: None) -> None:
    buf.append(_ATOM_NONE)


def _write_atom_bool(buf: bytearray, value: bool) -> None:
    buf.append(_ATOM_TRUE if value else _ATOM_FALSE)


def _write_atom_int(buf: bytearray, value: int) -> None:
    buf.append(_ATOM_INT)
    write_svarint(buf, value)


def _write_atom_float(buf: bytearray, value: float) -> None:
    buf.append(_ATOM_FLOAT)
    buf += _FLOAT.pack(value)


def _write_atom_str(buf: bytearray, value: str) -> None:
    encoded = value.encode("utf-8")
    buf.append(_ATOM_STR)
    write_uvarint(buf, len(encoded))
    buf += encoded


def _write_atom_bytes(buf: bytearray, value: bytes) -> None:
    buf.append(_ATOM_BYTES)
    write_uvarint(buf, len(value))
    buf += value


def _write_atom_tuple(buf: bytearray, value: tuple) -> None:
    buf.append(_ATOM_TUPLE)
    write_uvarint(buf, len(value))
    for part in value:
        write_atom(buf, part)


_ATOM_WRITERS: Dict[type, Writer] = {
    type(None): _write_atom_none,
    bool: _write_atom_bool,
    int: _write_atom_int,
    float: _write_atom_float,
    str: _write_atom_str,
    bytes: _write_atom_bytes,
    tuple: _write_atom_tuple,
}


def write_atom(buf: bytearray, value: Any) -> None:
    """Encode a plain payload (element, key, register value)."""
    writer = _ATOM_WRITERS.get(type(value)) or _inherited(_ATOM_WRITERS, value)
    if writer is None:
        raise UnsupportedType(f"cannot encode payload of type {type(value).__name__}")
    writer(buf, value)


def read_atom(cur: Cursor) -> Any:
    pos = cur.pos
    if pos >= cur.end:
        raise CodecError("truncated atom")
    tag = cur.data[pos]
    cur.pos = pos + 1
    # Commonest first: keys and replica ids, counters, digests.
    if tag == _ATOM_STR:
        return cur.take(read_uvarint(cur)).decode("utf-8")
    if tag == _ATOM_INT:
        return read_svarint(cur)
    if tag == _ATOM_BYTES:
        return cur.take(read_uvarint(cur))
    if tag == _ATOM_NONE:
        return None
    if tag == _ATOM_FALSE:
        return False
    if tag == _ATOM_TRUE:
        return True
    if tag == _ATOM_FLOAT:
        if cur.remaining < 8:
            raise CodecError("truncated float")
        return _FLOAT.unpack(cur.take(8))[0]
    if tag == _ATOM_TUPLE:
        cur.enter()
        parts = tuple([read_atom(cur) for _ in range(read_count(cur))])
        cur.depth -= 1
        return parts
    raise CodecError(f"unknown atom tag 0x{tag:02x}")


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
    buf = bytearray()
    _write_lattice(buf, value)
    return bytes(buf)


def decode(data: bytes) -> Lattice:
    """Inverse of :func:`encode`; raises :class:`CodecError` on junk.

    Any malformed input surfaces as :class:`CodecError` — including
    corruption that parses structurally but violates a lattice
    constructor's invariants (e.g. a Chain value below its bottom).
    """
    cur = Cursor(data)
    try:
        value = _read_lattice(cur)
    except CodecError:
        raise
    except (TypeError, ValueError) as exc:
        raise CodecError(f"malformed lattice value: {exc}") from exc
    if cur.remaining:
        raise CodecError("trailing bytes after lattice value")
    return value


def _write_maxint(buf: bytearray, value: MaxInt) -> None:
    buf.append(_TAG_MAXINT)
    write_uvarint(buf, value.value)


def _write_bool(buf: bytearray, value: Bool) -> None:
    buf.append(_TAG_BOOL)
    buf.append(1 if value.value else 0)


def _write_chain(buf: bytearray, value: Chain) -> None:
    buf.append(_TAG_CHAIN)
    write_atom(buf, value.value)
    write_atom(buf, value.bottom_value)


def _write_set(buf: bytearray, value: SetLattice) -> None:
    buf.append(_TAG_SET)
    write_uvarint(buf, len(value.elements))
    for element in _canonical(value.elements, _atom_sort_key):
        write_atom(buf, element)


def _write_map(buf: bytearray, value: MapLattice) -> None:
    buf.append(_TAG_MAP)
    write_uvarint(buf, len(value.entries))
    for key, bound in _canonical(value.entries.items(), _entry_sort_key):
        write_atom(buf, key)
        _write_lattice(buf, bound)


def _pair_writer(tag: int) -> Writer:
    """``LexPair`` and ``PairLattice`` share a shape and differ in tag."""

    def write(buf: bytearray, value: Any) -> None:
        buf.append(tag)
        _write_lattice(buf, value.first)
        _write_lattice(buf, value.second)

    return write


def _write_sum(buf: bytearray, value: LinearSum) -> None:
    buf.append(_TAG_SUM)
    buf.append(0 if value.tag == "Left" else 1)
    _write_lattice(buf, value.value)
    _write_lattice(buf, value.left_bottom)


def _write_lattice_atom(buf: bytearray, value: Atom) -> None:
    buf.append(_TAG_LATTICE_ATOM)
    if value.is_bottom:
        buf.append(0)
    else:
        buf.append(1)
        write_atom(buf, value.value)


def _write_causal(buf: bytearray, value: Causal) -> None:
    buf.append(_TAG_CAUSAL)
    _write_store(buf, value.store)
    _write_context(buf, value.context)


#: ``LexPair`` is listed before ``PairLattice`` in case of subclassing;
#: the two are distinct classes here but share shape.
_LATTICE_WRITERS: Dict[type, Writer] = {
    MaxInt: _write_maxint,
    Bool: _write_bool,
    Chain: _write_chain,
    SetLattice: _write_set,
    MapLattice: _write_map,
    LexPair: _pair_writer(_TAG_LEX),
    PairLattice: _pair_writer(_TAG_PAIR),
    LinearSum: _write_sum,
    Atom: _write_lattice_atom,
    Causal: _write_causal,
}


def _write_lattice(buf: bytearray, value: Lattice) -> None:
    writer = _LATTICE_WRITERS.get(type(value)) or _inherited(_LATTICE_WRITERS, value)
    if writer is None:
        raise UnsupportedType(
            f"no wire format for {type(value).__name__} "
            "(MaxElements and custom lattices are not serializable)"
        )
    writer(buf, value)


def _read_lattice(cur: Cursor) -> Lattice:
    pos = cur.pos
    if pos >= cur.end:
        raise CodecError("truncated lattice value")
    tag = cur.data[pos]
    cur.pos = pos + 1
    # Leaves first: they hold atoms, not lattices, and charge no depth.
    if tag == _TAG_MAXINT:
        return MaxInt(read_uvarint(cur))
    if tag == _TAG_BOOL:
        return Bool(bool(cur.byte()))
    if tag == _TAG_CHAIN:
        value = read_atom(cur)
        bottom = read_atom(cur)
        return Chain(value, bottom=bottom)
    if tag == _TAG_SET:
        return SetLattice([read_atom(cur) for _ in range(read_count(cur))])
    if tag == _TAG_LATTICE_ATOM:
        present = cur.byte()
        return Atom(read_atom(cur)) if present else Atom()
    cur.enter()
    try:
        if tag == _TAG_MAP:
            entries = {}
            for _ in range(read_count(cur)):
                key = read_atom(cur)
                entries[key] = _read_lattice(cur)
            return MapLattice(entries)
        if tag == _TAG_LEX:
            return LexPair(_read_lattice(cur), _read_lattice(cur))
        if tag == _TAG_PAIR:
            return PairLattice(_read_lattice(cur), _read_lattice(cur))
        if tag == _TAG_SUM:
            side = cur.byte()
            inner = _read_lattice(cur)
            left_bottom = _read_lattice(cur)
            tag_name = "Left" if side == 0 else "Right"
            return LinearSum(tag_name, inner, left_bottom=left_bottom)
        if tag == _TAG_CAUSAL:
            store = _read_store(cur)
            context = _read_context(cur)
            return Causal(store, context)
        raise CodecError(f"unknown lattice tag 0x{tag:02x}")
    finally:
        cur.depth -= 1


# ---------------------------------------------------------------------------
# Causal pieces.
# ---------------------------------------------------------------------------


def _write_dot(buf: bytearray, dot: Dot) -> None:
    write_atom(buf, dot.replica)
    write_uvarint(buf, dot.counter)


def _read_dot(cur: Cursor) -> Dot:
    return Dot(read_atom(cur), read_uvarint(cur))


def _write_context(buf: bytearray, context: CausalContext) -> None:
    write_uvarint(buf, len(context.compact))
    for replica, top in _canonical(context.compact.items(), _entry_sort_key):
        write_atom(buf, replica)
        write_uvarint(buf, top)
    write_uvarint(buf, len(context.cloud))
    for dot in _canonical(context.cloud, _dot_sort_key):
        _write_dot(buf, dot)


def _read_context(cur: Cursor) -> CausalContext:
    compact = {}
    for _ in range(read_count(cur)):
        replica = read_atom(cur)
        compact[replica] = read_uvarint(cur)
    cloud = [_read_dot(cur) for _ in range(read_count(cur))]
    return CausalContext(compact, cloud)


def _write_dotset(buf: bytearray, store: DotSet) -> None:
    buf.append(_STORE_DOTSET)
    dots = store.dots()
    write_uvarint(buf, len(dots))
    for dot in _canonical(dots, _dot_sort_key):
        _write_dot(buf, dot)


def _write_dotfun(buf: bytearray, store: DotFun) -> None:
    buf.append(_STORE_DOTFUN)
    write_uvarint(buf, len(store.entries))
    for dot, bound in _canonical(store.entries.items(), _dot_entry_sort_key):
        _write_dot(buf, dot)
        _write_lattice(buf, bound)


def _write_dotmap(buf: bytearray, store: DotMap) -> None:
    buf.append(_STORE_DOTMAP)
    write_uvarint(buf, len(store.entries))
    for key, sub in _canonical(store.entries.items(), _entry_sort_key):
        write_atom(buf, key)
        _write_store(buf, sub)


_STORE_WRITERS: Dict[type, Writer] = {
    DotSet: _write_dotset,
    DotFun: _write_dotfun,
    DotMap: _write_dotmap,
}


def _write_store(buf: bytearray, store: DotStore) -> None:
    writer = _STORE_WRITERS.get(type(store)) or _inherited(_STORE_WRITERS, store)
    if writer is None:  # pragma: no cover - the three shapes are closed
        raise UnsupportedType(f"unknown dot store {type(store).__name__}")
    writer(buf, store)


def _read_store(cur: Cursor) -> DotStore:
    tag = cur.byte()
    if tag == _STORE_DOTSET:
        return DotSet([_read_dot(cur) for _ in range(read_count(cur))])
    if tag == _STORE_DOTFUN:
        bound = {}
        for _ in range(read_count(cur)):
            dot = _read_dot(cur)
            bound[dot] = _read_lattice(cur)
        return DotFun(bound)
    if tag == _STORE_DOTMAP:
        cur.enter()
        entries = {}
        for _ in range(read_count(cur)):
            key = read_atom(cur)
            entries[key] = _read_store(cur)
        cur.depth -= 1
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
    top of the counted estimate (:mod:`repro.sizes`).
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


def _write_wire_vector(out: bytearray, vector: dict) -> None:
    """A version vector: replica → counter, deterministically ordered."""
    write_uvarint(out, len(vector))
    for origin, counter in _canonical(vector.items(), _entry_sort_key):
        write_atom(out, origin)
        write_uvarint(out, counter)


def _read_wire_vector(data: Cursor) -> dict:
    vector = {}
    for _ in range(read_count(data)):
        origin = read_atom(data)
        vector[origin] = read_uvarint(data)
    return vector


def _write_state(payload, payload_out: bytearray, meta_out: bytearray) -> None:
    _write_lattice(payload_out, payload)


# state-based: full lattice state
@wire_kind("state", tag=0, writer=_write_state)
# delta-based: one δ-group
@wire_kind("delta", tag=1, writer=_write_state)
# per-object delta-based: MapLattice of δ-groups
@wire_kind("keyed-delta", tag=2, writer=_write_state)
def _read_state(payload_in: Cursor, meta_in: Cursor):
    return _read_lattice(payload_in)


def _write_digest(payload, payload_out: bytearray, meta_out: bytearray) -> None:
    if isinstance(payload, dict) and set(payload) == {"vector", "knowledge"}:
        # Scuttlebutt-GC: the vector plus the gossiped knowledge matrix.
        meta_out.append(1)
        _write_wire_vector(meta_out, payload["vector"])
        knowledge = payload["knowledge"]
        write_uvarint(meta_out, len(knowledge))
        for node, vector in _canonical(knowledge.items(), _entry_sort_key):
            write_atom(meta_out, node)
            _write_wire_vector(meta_out, vector)
    else:
        meta_out.append(0)
        _write_wire_vector(meta_out, payload)


# Scuttlebutt summary vector (± GC knowledge matrix)
@wire_kind("digest", tag=3, writer=_write_digest)
def _read_digest(payload_in: Cursor, meta_in: Cursor):
    variant = meta_in.byte()
    vector = _read_wire_vector(meta_in)
    if variant == 0:
        return vector
    knowledge = {}
    for _ in range(read_count(meta_in)):
        node = read_atom(meta_in)
        knowledge[node] = _read_wire_vector(meta_in)
    return {"vector": vector, "knowledge": knowledge}


def _write_versioned_deltas(payload, payload_out: bytearray, meta_out: bytearray) -> None:
    write_uvarint(meta_out, len(payload))
    for (origin, seq), delta in payload:
        write_atom(meta_out, origin)
        write_uvarint(meta_out, seq)
        _write_lattice(payload_out, delta)


# Scuttlebutt reply: versioned deltas
@wire_kind("deltas", tag=4, writer=_write_versioned_deltas)
def _read_versioned_deltas(payload_in: Cursor, meta_in: Cursor):
    pairs = []
    for _ in range(read_count(meta_in)):
        origin = read_atom(meta_in)
        seq = read_uvarint(meta_in)
        pairs.append(((origin, seq), _read_lattice(payload_in)))
    return pairs


def _write_ops(payload, payload_out: bytearray, meta_out: bytearray) -> None:
    write_uvarint(meta_out, len(payload))
    for envelope in payload:
        write_atom(meta_out, envelope.origin)
        write_uvarint(meta_out, envelope.seq)
        _write_wire_vector(meta_out, envelope.clock)
        _write_lattice(payload_out, envelope.payload)


# op-based: causally-tagged operation envelopes
@wire_kind("ops", tag=5, writer=_write_ops)
def _read_ops(payload_in: Cursor, meta_in: Cursor):
    # Imported lazily: repro.sync pulls this module in through the
    # Merkle baseline, so a module-level import would be circular.
    from repro.sync.opbased import OpEnvelope

    envelopes = []
    for _ in range(read_count(meta_in)):
        origin = read_atom(meta_in)
        seq = read_uvarint(meta_in)
        clock = _read_wire_vector(meta_in)
        envelopes.append(
            OpEnvelope(origin=origin, seq=seq, clock=clock, payload=_read_lattice(payload_in))
        )
    return envelopes


def _write_trie_nodes(payload, payload_out: bytearray, meta_out: bytearray) -> None:
    write_uvarint(meta_out, len(payload))
    for prefix, node_digest in payload:
        write_atom(meta_out, prefix)
        write_atom(meta_out, node_digest)


# Merkle descent: (prefix, digest) nodes
@wire_kind("mt-node", tag=6, writer=_write_trie_nodes)
def _read_trie_nodes(payload_in: Cursor, meta_in: Cursor):
    return tuple(
        (read_atom(meta_in), read_atom(meta_in)) for _ in range(read_count(meta_in))
    )


def _write_trie_leaves(payload, payload_out: bytearray, meta_out: bytearray) -> None:
    write_uvarint(meta_out, len(payload))
    for prefix, leaves in payload:
        write_atom(meta_out, prefix)
        write_uvarint(meta_out, len(leaves))
        for leaf_digest, blob in leaves:
            write_atom(meta_out, leaf_digest)
            # Leaf payloads are already codec-encoded irreducibles; the
            # blob is payload, its length prefix is framing.
            write_uvarint(meta_out, len(blob))
            payload_out += blob


# Merkle bucket ship (expects complement reply)
@wire_kind("mt-leaves", tag=7, writer=_write_trie_leaves)
# Merkle bucket ship (final leg)
@wire_kind("mt-leaves-final", tag=8, writer=_write_trie_leaves)
def _read_trie_leaves(payload_in: Cursor, meta_in: Cursor):
    buckets = []
    for _ in range(read_count(meta_in)):
        prefix = read_atom(meta_in)
        leaves = []
        for _ in range(read_count(meta_in)):
            leaf_digest = read_atom(meta_in)
            blob = payload_in.take(read_uvarint(meta_in))
            leaves.append((leaf_digest, blob))
        buckets.append((prefix, tuple(leaves)))
    return tuple(buckets)


def _write_kv_digest(payload, payload_out: bytearray, meta_out: bytearray) -> None:
    write_atom(meta_out, payload)


# store repair: root-hash divergence probe
@wire_kind("kv-digest", tag=9, writer=_write_kv_digest)
def _read_kv_digest(payload_in: Cursor, meta_in: Cursor):
    return read_atom(meta_in)


def _write_fingerprints(out: bytearray, fingerprints) -> None:
    write_uvarint(out, len(fingerprints))
    for entry in sorted(fingerprints):
        write_atom(out, entry)


def _read_fingerprints(data: Cursor) -> frozenset:
    fingerprints = frozenset([read_atom(data) for _ in range(read_count(data))])
    # The writer orders them as byte strings; anything else could not be sent on.
    if set(map(type, fingerprints)) - {bytes}:
        raise CodecError("fingerprints must be byte strings")
    return fingerprints


def _write_kv_diff(payload, payload_out: bytearray, meta_out: bytearray) -> None:
    _write_fingerprints(meta_out, payload)


# store repair: fingerprint-digest escalation
@wire_kind("kv-diff", tag=10, writer=_write_kv_diff)
def _read_kv_diff(payload_in: Cursor, meta_in: Cursor):
    return _read_fingerprints(meta_in)


def _write_kv_repair(payload, payload_out: bytearray, meta_out: bytearray) -> None:
    delta, echo = payload
    if echo is None:
        meta_out.append(0)
    else:
        meta_out.append(1)
        _write_fingerprints(meta_out, echo)
    _write_lattice(payload_out, delta)


# store repair: (delta, echo digest | None)
@wire_kind("kv-repair", tag=11, writer=_write_kv_repair)
def _read_kv_repair(payload_in: Cursor, meta_in: Cursor):
    has_echo = meta_in.byte()
    echo = _read_fingerprints(meta_in) if has_echo else None
    return (_read_lattice(payload_in), echo)


def _write_kv_batch(payload, payload_out: bytearray, meta_out: bytearray) -> None:
    write_uvarint(meta_out, len(payload))
    for shard, inner in payload:
        write_uvarint(meta_out, shard)
        _write_message(inner, payload_out, meta_out)


# store framing: bundled (shard, message) pairs
@wire_kind("kv-batch", tag=12, writer=_write_kv_batch)
def _read_kv_batch(payload_in: Cursor, meta_in: Cursor):
    entries = []
    for _ in range(read_count(meta_in)):
        shard = read_uvarint(meta_in)
        entries.append((shard, _read_message(payload_in, meta_in)))
    return tuple(entries)


def _write_kv_handoff_offer(payload, payload_out: bytearray, meta_out: bytearray) -> None:
    root, size_hint = payload
    write_atom(meta_out, root)
    write_uvarint(meta_out, size_hint)


# rebalance: shard handoff announcement (root, size hint)
@wire_kind("kv-handoff-offer", tag=13, writer=_write_kv_handoff_offer)
def _read_kv_handoff_offer(payload_in: Cursor, meta_in: Cursor):
    root = read_atom(meta_in)
    return (root, read_uvarint(meta_in))


def _write_kv_handoff_segment(payload, payload_out: bytearray, meta_out: bytearray) -> None:
    # Record bodies are already codec-encoded deltas straight off the
    # shard log; the bodies are payload, their length prefixes framing.
    write_uvarint(meta_out, len(payload))
    for body in payload:
        write_uvarint(meta_out, len(body))
        payload_out += body


# rebalance: compacted WAL segment (encoded delta records)
@wire_kind("kv-handoff-segment", tag=14, writer=_write_kv_handoff_segment)
def _read_kv_handoff_segment(payload_in: Cursor, meta_in: Cursor):
    return tuple(
        payload_in.take(read_uvarint(meta_in))
        for _ in range(read_count(meta_in))
    )


def _write_kv_handoff_ack(payload, payload_out: bytearray, meta_out: bytearray) -> None:
    complete, root = payload
    meta_out.append(1 if complete else 0)
    if root is None:
        meta_out.append(0)
    else:
        meta_out.append(1)
        write_atom(meta_out, root)


# rebalance: receiver verdict (complete flag, replayed root)
@wire_kind("kv-handoff-ack", tag=15, writer=_write_kv_handoff_ack)
def _read_kv_handoff_ack(payload_in: Cursor, meta_in: Cursor):
    complete = bool(meta_in.byte())
    has_root = meta_in.byte()
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


def _write_message(message, payload_out: bytearray, meta_out: bytearray) -> None:
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


def _read_message(payload_in: Cursor, meta_in: Cursor, framing: int = 0):
    """One message off the two sections; ``framing`` is the envelope's own
    bytes, which the outermost message counts as metadata."""
    payload_start = payload_in.pos
    meta_start = meta_in.pos
    index = read_uvarint(meta_in)
    if index >= len(WIRE_KINDS):
        raise CodecError(f"unknown wire kind tag {index}")
    kind = WIRE_KINDS[index]
    payload_units = read_uvarint(meta_in)
    metadata_units = read_uvarint(meta_in)
    _, reader = _WIRE_CODECS[kind]
    meta_in.enter()  # a kv-batch nests messages
    try:
        payload = reader(payload_in, meta_in)
    except CodecError:
        raise
    except (TypeError, ValueError) as exc:
        raise CodecError(f"malformed {kind} payload: {exc}") from exc
    meta_in.depth -= 1
    return _WireMessage(
        kind=kind,
        payload=payload,
        payload_units=payload_units,
        payload_bytes=payload_in.pos - payload_start,
        metadata_bytes=meta_in.pos - meta_start + framing,
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
    payload_section = bytearray()
    meta_section = bytearray()
    _write_message(message, payload_section, meta_section)
    data = bytearray()
    write_uvarint(data, len(payload_section))
    data += payload_section
    write_uvarint(data, len(meta_section))
    data += meta_section
    frame = WireFrame(
        data=bytes(data),
        payload_bytes=len(payload_section),
        metadata_bytes=len(data) - len(payload_section),
    )
    # ``Message`` is a frozen dataclass without ``__slots__``; the memo
    # rides on the instance, invisible to equality and dataclasses.
    # A memo, not a mutation: the frame is a pure function of the frozen message.
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
    envelope = Cursor(data)
    payload_in = Cursor(envelope.take(read_uvarint(envelope)))
    meta_in = Cursor(envelope.take(read_uvarint(envelope)))
    if envelope.remaining:
        raise CodecError("trailing bytes after message envelope")
    message = _read_message(payload_in, meta_in, len(data) - payload_in.end - meta_in.end)
    if payload_in.remaining or meta_in.remaining:
        raise CodecError("trailing bytes inside message sections")
    return message


# Imported at the bottom on purpose: ``repro.sync`` pulls this module
# in while initializing (through the Merkle baseline), so importing the
# protocol Message at the top would be circular.
from repro.sync.protocol import Message as _WireMessage  # noqa: E402

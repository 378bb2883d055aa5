"""Golden vectors pinning the wire format.

The codec's byte layout is a compatibility contract: states persisted
or exchanged by one version must decode under the next.  These vectors
pin the exact encoding of one representative value per construct; any
format change — intentional or not — fails here first, forcing an
explicit decision (and, in a real deployment, a version bump).

Three tables: ``GOLDEN`` pins ``encode`` (every atom type, lattice tag
and dot-store shape, including collections whose order exercises the
``(type name, repr)`` sort key), ``FRAMES`` pins one envelope per wire
kind with its measured payload/metadata split, and the last section
pins the two formats built on the codec's primitives — a WAL record and
the serving tier's request/response bodies.
"""

import pytest

from repro.causal import Atom, Causal, CausalContext, Dot, DotFun, DotMap, DotSet
from repro.codec import WIRE_KINDS, decode, decode_message, encode, frame_message
from repro.lattice import (
    Bool,
    Chain,
    LexPair,
    LinearSum,
    MapLattice,
    MaxInt,
    PairLattice,
    SetLattice,
)
from repro.serve import frames
from repro.serve.frames import (
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.sync.opbased import OpEnvelope
from repro.sync.protocol import Message
from repro.wal.log import pack_record, unpack_records

GOLDEN = [
    ("maxint-zero", MaxInt(0), "1000"),
    ("maxint", MaxInt(300), "10ac02"),
    ("bool", Bool(True), "1101"),
    ("chain", Chain(7, bottom=0), "1203 0e 03 00"),
    ("set", SetLattice({"b", "a"}), "1302 0501 61 0501 62"),
    ("map", MapLattice({"k": MaxInt(1)}), "1401 0501 6b 1001"),
    ("pair", PairLattice(MaxInt(1), Bool(False)), "15 1001 1100"),
    ("lexpair", LexPair(MaxInt(2), MaxInt(3)), "16 1002 1003"),
    ("sum-left", LinearSum.left(MaxInt(4)), "17 00 1004 1000"),
    ("atom-bottom", Atom(), "21 00"),
    ("atom-int", Atom(-1), "21 01 03 01"),
    (
        "causal-dotset",
        Causal(
            DotSet([Dot("A", 1)]),
            CausalContext.from_dots([Dot("A", 1), Dot("B", 2)]),
        ),
        # store: DotSet with 1 dot (A,1); context: compact {A:1}, cloud {(B,2)}
        "20 01 01 0501 41 01   01 0501 41 01   01 0501 42 02",
    ),
    (
        "causal-dotfun",
        Causal(
            DotFun({Dot("A", 1): Atom("v")}),
            CausalContext.from_dots([Dot("A", 1)]),
        ),
        "20 02 01 0501 41 01 21 01 0501 76   01 0501 41 01   00",
    ),
    (
        "causal-dotmap",
        Causal(
            DotMap({"x": DotSet([Dot("A", 1)])}),
            CausalContext.from_dots([Dot("A", 1)]),
        ),
        "20 03 01 0501 78 01 01 0501 41 01   01 0501 41 01   00",
    ),
    # One vector per atom type (wrapped in the Atom lattice: 21 01 <atom>).
    ("atom-none", Atom(None), "210100"),
    ("atom-false", Atom(False), "210101"),
    ("atom-true", Atom(True), "210102"),
    ("atom-int-multibyte", Atom(-300), "210103d704"),
    ("atom-int-big", Atom(2**70), "2101038080808080808080808002"),
    ("atom-float", Atom(1.5), "2101043ff8000000000000"),
    ("atom-str-utf8", Atom("hé"), "2101050368c3a9"),
    (
        "atom-str-long",
        Atom("x" * 130),
        "21010582017878787878787878787878787878787878787878787878787878787878787878787878"
        "78787878787878787878787878787878787878787878787878787878787878787878787878787878"
        "78787878787878787878787878787878787878787878787878787878787878787878787878787878"
        "787878787878787878787878787878",
    ),
    ("atom-bytes", Atom(b"\x00\xff"), "2101060200ff"),
    ("atom-tuple-empty", Atom(()), "21010700"),
    ("atom-tuple-nested", Atom((1, ("a", None), b"z")), "21010703030207020501610006017a"),
    ("bool-false", Bool(False), "1100"),
    ("chain-str", Chain("v2", bottom=""), "12050276320500"),
    ("set-empty", SetLattice(), "1300"),
    ("map-empty", MapLattice(), "1400"),
    (
        "sum-right",
        LinearSum.right(SetLattice({"r"}), left_bottom=MaxInt(0)),
        "170113010501721000",
    ),
    (
        "set-mixed-atoms",
        SetLattice({None, False, True, -3, 300, 1.5, "hé", b"\x00\xff", (), (2, "t")}),
        "130a000102060200ff043ff8000000000000030503d804050368c3a9070007020304050174",
    ),
    (
        "set-quote-order",
        SetLattice({"abc", "it's", "zed", 'say "hi"'}),
        "130405046974277305036162630508736179202268692205037a6564",
    ),
    ("set-int-repr-order", SetLattice({9, 10, 100, -1}), "13040301031403c8010312"),
    (
        "map-mixed-keys",
        MapLattice(
            {
                10: MaxInt(1),
                9: MaxInt(2),
                "b": Bool(True),
                "a": SetLattice({2, 1}),
                ("t", 1): MaxInt(3),
            }
        ),
        "140503141001031210020501611302030203040501621101070205017403021003",
    ),
    (
        "map-nested",
        MapLattice({"outer": MapLattice({"y": MaxInt(1), "x": MaxInt(2)})}),
        "140105056f75746572140205017810020501791001",
    ),
    (
        "pair-nested",
        PairLattice(SetLattice({"p"}), PairLattice(MaxInt(1), MaxInt(2))),
        "1513010501701510011002",
    ),
    ("lexpair-chain", LexPair(MaxInt(7), Chain("w", bottom="")), "161007120501770500"),
    ("causal-bottom-dotset", Causal(DotSet(), CausalContext()), "2001000000"),
    (
        "causal-dotset-many",
        Causal(DotSet([Dot("B", 1), Dot("A", 10), Dot("A", 9)]), CausalContext({"A": 10, "B": 1})),
        "200103050141090501410a05014201020501410a0501420100",
    ),
    (
        "causal-context-mixed",
        Causal(
            DotSet(),
            CausalContext(
                {"b": 2, "a": 1, 10: 3, 9: 4}, [Dot("a", 7), Dot("a", 5), Dot("c", 2)]
            ),
        ),
        "20010004031403031204050161010501620203050161050501610705016302",
    ),
    (
        "causal-dotfun-many",
        Causal(
            DotFun({Dot("B", 2): Atom(5), Dot("A", 1): Atom("v"), Dot("A", 3): MaxInt(4)}),
            CausalContext({"A": 3, "B": 2}),
        ),
        "200203050141012101050176050141031004050142022101030a02050141030501420200",
    ),
    (
        "causal-dotmap-nested",
        Causal(
            DotMap(
                {
                    "y": DotSet([Dot("A", 2)]),
                    "x": DotMap({"in": DotFun({Dot("A", 1): Atom(1)})}),
                    3: DotSet([Dot("B", 1)]),
                }
            ),
            CausalContext({"A": 2, "B": 1}),
        ),
        "200303030601010501420105017803010502696e0201050141012101030205017901010501410202"
        "050141020501420100",
    ),
]


def _clean(hexes: str) -> bytes:
    return bytes.fromhex(hexes.replace(" ", ""))


@pytest.mark.parametrize("label,value,expected_hex", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_encoding_matches_golden_vector(label, value, expected_hex):
    assert encode(value).hex() == _clean(expected_hex).hex()


@pytest.mark.parametrize("label,value,expected_hex", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_vector_decodes_to_value(label, value, expected_hex):
    assert decode(_clean(expected_hex)) == value


# ---------------------------------------------------------------------------
# Message envelopes: one pinned frame per wire kind.
# ---------------------------------------------------------------------------


def msg(kind, payload, payload_units=3, metadata_units=2) -> Message:
    """The model byte fields never reach the wire; the units do."""
    return Message(
        kind=kind,
        payload=payload,
        payload_units=payload_units,
        payload_bytes=111,
        metadata_bytes=222,
        metadata_units=metadata_units,
    )


#: (label, message, envelope hex, payload bytes, metadata bytes)
FRAMES = [
    ("state", msg("state", SetLattice({"x", "y"})), "08130205017805017903000302", 8, 5),
    (
        "delta",
        msg("delta", MapLattice({"k2": SetLattice({"a"}), "k1": MaxInt(3)})),
        "11140205026b31100305026b32130105016103010302",
        17,
        5,
    ),
    (
        "keyed-delta",
        msg("keyed-delta", MapLattice({"obj": SetLattice({"e2", "e1"})}), 200, 0),
        "11140105036f626a130205026531050265320402c80100",
        17,
        6,
    ),
    ("digest", msg("digest", {2: 7, 0: 3, 5: 1}), "000e0303020003030003030407030a01", 0, 16),
    (
        "digest-gc",
        msg("digest", {"vector": {1: 2, 0: 300}, "knowledge": {1: {0: 1}, 0: {1: 2, 0: 3}}}),
        "001c03030201020300ac0203020202030002030003030202030201030001",
        0,
        30,
    ),
    (
        "deltas",
        msg("deltas", [((2, 4), MaxInt(9)), ((0, 1), SetLattice({"a"}))]),
        "07100913010501610a04030202030404030001",
        7,
        12,
    ),
    (
        "ops",
        msg(
            "ops",
            [
                OpEnvelope(origin=0, seq=1, clock={0: 1}, payload=SetLattice({"a"})),
                OpEnvelope(origin=2, seq=3, clock={2: 3, 0: 1}, payload=MaxInt(5)),
            ],
        ),
        "071301050161100515050302020300010103000103040302030001030403",
        7,
        23,
    ),
    (
        "mt-node",
        msg("mt-node", (("", b"d" * 20), ("a3", b"e" * 20))),
        "00360603020205000614646464646464646464646464646464646464646405026133061465656565"
        "65656565656565656565656565656565",
        0,
        56,
    ),
    (
        "mt-leaves",
        msg("mt-leaves", (("a", ((b"h" * 20, encode(MaxInt(3))),)),)),
        "0210031f07030201050161010614686868686868686868686868686868686868686802",
        2,
        33,
    ),
    (
        "mt-leaves-final",
        msg("mt-leaves-final", (("0", ((b"i" * 20, encode(SetLattice({"q"}))),)), ("f", ()))),
        "05130105017123080302020501300106146969696969696969696969696969696969696969050501"
        "6600",
        5,
        37,
    ),
    (
        "kv-digest",
        msg("kv-digest", b"r" * 16),
        "0015090302061072727272727272727272727272727272",
        0,
        23,
    ),
    (
        "kv-diff",
        msg("kv-diff", frozenset({b"\x02" * 8, b"\x01" * 8})),
        "00180a0302020608010101010101010106080202020202020202",
        0,
        26,
    ),
    (
        "kv-repair",
        msg("kv-repair", (MapLattice({"k": MaxInt(2)}), frozenset({b"\x0e" * 8}))),
        "07140105016b10020f0b0302010106080e0e0e0e0e0e0e0e",
        7,
        17,
    ),
    (
        "kv-repair-no-echo",
        msg("kv-repair", (MapLattice({"k": MaxInt(2)}), None)),
        "07140105016b1002040b030200",
        7,
        6,
    ),
    (
        "kv-batch",
        msg(
            "kv-batch",
            (
                (1, msg("keyed-delta", MapLattice({"aws:k": MaxInt(1)}), 1, 0)),
                (5, msg("kv-repair", (MapLattice({"k": MaxInt(2)}), frozenset({b"\x0e" * 8})), 1, 1)),
            ),
        ),
        "12140105056177733a6b1001140105016b1002180c03020201020100050b0101010106080e0e0e0e"
        "0e0e0e0e",
        18,
        26,
    ),
    (
        "kv-handoff-offer",
        msg("kv-handoff-offer", (b"r" * 16, 512)),
        "00170d03020610727272727272727272727272727272728004",
        0,
        25,
    ),
    (
        "kv-handoff-segment",
        msg("kv-handoff-segment", (encode(SetLattice({"a"})), encode(MaxInt(7)))),
        "0713010501611007060e0302020502",
        7,
        8,
    ),
    (
        "kv-handoff-ack",
        msg("kv-handoff-ack", (True, b"r" * 16)),
        "00170f03020101061072727272727272727272727272727272",
        0,
        25,
    ),
    ("kv-handoff-ack-no-root", msg("kv-handoff-ack", (False, None)), "00050f03020000", 0, 7),
]


def _content(message: Message):
    """What an envelope carries: kind, units and payload, nested batches too."""
    payload = message.payload
    if message.kind == "kv-batch":
        payload = tuple((shard, _content(inner)) for shard, inner in payload)
    return (message.kind, message.payload_units, message.metadata_units, payload)


def test_every_wire_kind_has_a_pinned_frame():
    assert {message.kind for _, message, *_ in FRAMES} == set(WIRE_KINDS)
    assert len(WIRE_KINDS) == 16


@pytest.mark.parametrize(
    "label,message,expected_hex,payload_bytes,metadata_bytes",
    FRAMES,
    ids=[f[0] for f in FRAMES],
)
def test_frame_matches_golden_vector(
    label, message, expected_hex, payload_bytes, metadata_bytes
):
    frame = frame_message(message)
    assert frame.data.hex() == expected_hex
    assert frame.payload_bytes == payload_bytes
    assert frame.metadata_bytes == metadata_bytes


@pytest.mark.parametrize(
    "label,message,expected_hex,payload_bytes,metadata_bytes",
    FRAMES,
    ids=[f[0] for f in FRAMES],
)
def test_golden_frame_decodes_to_message(
    label, message, expected_hex, payload_bytes, metadata_bytes
):
    decoded = decode_message(bytes.fromhex(expected_hex))
    assert _content(decoded) == _content(message)
    assert decoded.payload_bytes == payload_bytes
    assert decoded.metadata_bytes == metadata_bytes


# ---------------------------------------------------------------------------
# The formats built on the codec's varint/atom primitives.
# ---------------------------------------------------------------------------

#: (body, record hex): uvarint(len) body u32be(crc32) — one- and two-byte lengths.
WAL_RECORDS = [
    (
        encode(MapLattice({"aws:k": SetLattice({"a"})})),
        "0e140105056177733a6b1301050161c646b290",
    ),
    (b"x" * 200, "c801" + "78" * 200 + "7ecb6ba6"),
]


@pytest.mark.parametrize("body,expected_hex", WAL_RECORDS, ids=["delta", "two-byte-length"])
def test_wal_record_matches_golden_image(body, expected_hex):
    image = bytes.fromhex(expected_hex)
    assert pack_record(body) == image
    assert unpack_records(image) == ([body], len(image), False)


REQUESTS = [
    (
        Request(7, frames.PUT, key="aws:cart", op="add", args=("milk", 2)),
        "070205086177733a636172740503616464070205046d696c6b0304",
    ),
    (Request(300, frames.GET, key=("t", 1)), "ac020107020501740302"),
    (Request(1, frames.REPAIR, blob=encode(MaxInt(3))), "0104021003"),
    (
        Request(2, frames.WIRE, body={"b": [1, 2], "a": "x"}),
        "0211137b2261223a2278222c2262223a5b312c325d7d",
    ),
    (Request(3, frames.PING), "0310"),
]

RESPONSES = [
    (
        Response(7, blob=encode(MaxInt(3)), body={"b": 1, "a": [2]}),
        "0700030210030f7b2261223a5b325d2c2262223a317d",
    ),
    (Response(8), "080000"),
    (Response(9, frames.ERR_ROUTING, error="not mine"), "090105086e6f74206d696e65"),
    (Response(300, blob=b""), "ac02000100"),
]


@pytest.mark.parametrize("request_,expected_hex", REQUESTS, ids=[r[1][:6] for r in REQUESTS])
def test_serve_request_matches_golden_body(request_, expected_hex):
    assert encode_request(request_).hex() == expected_hex
    assert decode_request(bytes.fromhex(expected_hex)) == request_


@pytest.mark.parametrize("response,expected_hex", RESPONSES, ids=[r[1][:6] for r in RESPONSES])
def test_serve_response_matches_golden_body(response, expected_hex):
    assert encode_response(response).hex() == expected_hex
    assert decode_response(bytes.fromhex(expected_hex)) == response

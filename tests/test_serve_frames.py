"""The serving layer's client/control wire protocol (`repro.serve.frames`).

Round-trips for every verb family, the error statuses, and the framing
helpers — all pure bytes, no sockets except one socketpair exercising
the blocking send/recv path end to end.
"""

from __future__ import annotations

import asyncio
import socket
import struct

import pytest

from repro.net import framing
from repro.serve import frames
from repro.serve.frames import (
    FrameError,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)


def roundtrip_request(request: Request) -> Request:
    return decode_request(encode_request(request))


def roundtrip_response(response: Response) -> Response:
    return decode_response(encode_response(response))


class TestRequestRoundtrip:
    def test_get(self):
        back = roundtrip_request(Request(7, frames.GET, key="cnt:00001"))
        assert back == Request(7, frames.GET, key="cnt:00001")

    def test_remove(self):
        back = roundtrip_request(Request(8, frames.REMOVE, key="set:a"))
        assert back == Request(8, frames.REMOVE, key="set:a")

    def test_put_with_typed_args(self):
        request = Request(9, frames.PUT, key="reg:r", op="write", args=("v1", 4))
        assert roundtrip_request(request) == request

    def test_put_with_no_args(self):
        request = Request(1, frames.PUT, key="cnt:c", op="increment", args=())
        assert roundtrip_request(request) == request

    def test_repair_carries_opaque_blob(self):
        request = Request(2, frames.REPAIR, blob=b"\x00\x01\xffencoded")
        assert roundtrip_request(request) == request

    def test_control_body_json(self):
        body = {"addresses": {"0": ["127.0.0.1", 4242]}, "round": 3}
        request = Request(3, frames.WIRE, body=body)
        assert roundtrip_request(request) == request

    def test_bare_verbs_have_no_fields(self):
        for verb in (
            frames.PING,
            frames.TICK,
            frames.COUNTERS,
            frames.ROOTS,
            frames.STAT,
            frames.SHUTDOWN,
        ):
            assert roundtrip_request(Request(4, verb)) == Request(4, verb)

    def test_request_ids_are_preserved_verbatim(self):
        for request_id in (0, 1, 127, 128, 1 << 20):
            assert roundtrip_request(
                Request(request_id, frames.TICK)
            ).id == request_id


class TestRequestErrors:
    def test_unknown_verb(self):
        with pytest.raises(FrameError, match="unknown verb"):
            decode_request(b"\x00\x7f")

    def test_missing_verb(self):
        with pytest.raises(FrameError, match="missing verb"):
            decode_request(b"\x05")

    def test_truncated_put(self):
        good = encode_request(
            Request(1, frames.PUT, key="k", op="add", args=("x",))
        )
        with pytest.raises(FrameError):
            decode_request(good[:-2])

    def test_truncated_repair_blob(self):
        good = encode_request(Request(1, frames.REPAIR, blob=b"abcdef"))
        with pytest.raises(FrameError, match="truncated repair blob"):
            decode_request(good[:-1])

    def test_control_body_must_be_an_object(self):
        import json

        from repro.codec import write_uvarint

        out = bytearray()
        write_uvarint(out, 1)
        out.append(frames.WIRE)
        payload = json.dumps([1, 2]).encode("utf-8")
        write_uvarint(out, len(payload))
        out += payload
        with pytest.raises(FrameError, match="JSON object"):
            decode_request(bytes(out))


class TestResponseRoundtrip:
    def test_ok_empty(self):
        back = roundtrip_response(Response(5))
        assert back.ok and back.blob is None and back.body == {} and back.error is None

    def test_ok_with_blob(self):
        response = Response(6, blob=b"\x00encoded-lattice")
        back = roundtrip_response(response)
        assert back.ok and back.blob == response.blob

    def test_ok_with_empty_blob_distinct_from_absent(self):
        # GET of an unwritten key answers blob=None; an encoded bottom
        # would be blob=b"...".  The flag bit keeps them distinct.
        assert roundtrip_response(Response(1, blob=b"")).blob == b""
        assert roundtrip_response(Response(1)).blob is None

    def test_ok_with_body(self):
        response = Response(7, body={"round": 12, "blocked": 0})
        assert roundtrip_response(response).body == {"round": 12, "blocked": 0}

    def test_ok_with_blob_and_body(self):
        response = Response(8, blob=b"xy", body={"a": 1})
        back = roundtrip_response(response)
        assert (back.blob, back.body) == (b"xy", {"a": 1})

    def test_error_statuses_carry_the_message(self):
        for status in (
            frames.ERR_ROUTING,
            frames.ERR_TYPE,
            frames.ERR_BAD_REQUEST,
            frames.ERR_INTERNAL,
        ):
            back = roundtrip_response(
                Response(9, status, error="replica 2 does not own key 'k'")
            )
            assert not back.ok
            assert back.status == status
            assert back.error == "replica 2 does not own key 'k'"

    def test_truncated_response(self):
        good = encode_response(Response(1, blob=b"abcdef"))
        with pytest.raises(FrameError):
            decode_response(good[:-1])


class TestFraming:
    def test_frame_prefixes_big_endian_length(self):
        framed = framing.frame(b"body")
        assert framed == struct.pack(">I", 4) + b"body"

    def test_oversized_frame_refused(self):
        with pytest.raises(FrameError, match="too large"):
            framing.frame(b"x" * (framing.MAX_FRAME_BYTES + 1))

    def test_oversized_length_prefix_refused_before_allocation(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", framing.MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameError, match="too large"):
                framing.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_asyncio_reader_refuses_oversized_length_without_reading_a_body(self):
        """The stream reader every server-side plane uses (replica peer
        and client planes, the in-process TCP transport) applies the
        same cap: the refusal comes from the 4-byte prefix alone."""

        async def read_hostile_prefix():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", 0xFFFFFFFF))
            await asyncio.wait_for(framing.read_frame(reader), timeout=2.0)

        with pytest.raises(FrameError, match="too large"):
            asyncio.run(read_hostile_prefix())

    def test_hello_is_a_framed_uvarint_and_round_trips(self):
        assert framing.hello(5) == struct.pack(">I", 1) + b"\x05"
        assert framing.read_hello(framing.hello(300)[4:]) == 300

    def test_send_recv_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            body = encode_request(Request(3, frames.GET, key="gct:00001"))
            framing.send_frame(a, body)
            framing.send_frame(a, b"")
            assert framing.recv_frame(b) == body
            assert framing.recv_frame(b) == b""
        finally:
            a.close()
            b.close()

    def test_peer_close_mid_frame_is_a_connection_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 10) + b"half")
            a.close()
            with pytest.raises(ConnectionError):
                framing.recv_frame(b)
        finally:
            b.close()

    def test_verb_name_covers_known_and_unknown(self):
        assert frames.verb_name(frames.GET) == "get"
        assert frames.verb_name(0x7F) == "verb-0x7f"

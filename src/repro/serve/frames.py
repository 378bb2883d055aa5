"""The client/control wire protocol of the serving layer.

One frame per request and one per response, in the length-prefixed
framing every socket in the tree shares (:mod:`repro.net.framing` —
this module only encodes and decodes the frame *bodies*):

``frame := u32be(length) body``

A request body is ``uvarint(request_id) u8(verb) fields``; a response
body is ``uvarint(request_id) u8(status) fields``.  Fields reuse the
:mod:`repro.codec` primitives — keys, ops, and op arguments travel as
atoms, lattice values as their canonical ``encode()`` bytes, and
control-plane structures (address maps, counter snapshots) as compact
JSON blobs.  The request id lets a client pipeline requests over one
connection and match replies; both ends treat it as opaque.

Verbs split into a **data plane** the :class:`~repro.serve.client.
KVClient` speaks — GET/PUT/REMOVE on one key, REPAIR pushing an
encoded keyspace fragment (quorum write replication and read repair
share this verb: both ship deltas the pusher already holds, because
re-applying a typed op at a second owner would double-count
non-idempotent operations) — and a **control plane** the
:class:`~repro.serve.cluster.ProcessCluster` controller speaks: WIRE
distributes the address map / down set / blocked-peer sets / round
counter, TICK runs one anti-entropy tick, COUNTERS reads the
sent/delivered totals the controller's termination detection polls,
ROOTS collects per-shard root hashes for convergence checks, STAT
dumps the metrics registry, APPLY_RING and HANDOFF drive membership
changes, SHUTDOWN exits cleanly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.codec import CodecError, Cursor, read_atom, read_uvarint, write_atom, write_uvarint
from repro.net.framing import FrameError

# Data-plane verbs (the KVClient).
GET = 0x01
PUT = 0x02
REMOVE = 0x03
REPAIR = 0x04
# Control-plane verbs (the ProcessCluster controller).
PING = 0x10
WIRE = 0x11
TICK = 0x12
COUNTERS = 0x13
ROOTS = 0x14
STAT = 0x15
APPLY_RING = 0x16
HANDOFF = 0x17
SHUTDOWN = 0x18

VERB_NAMES = {
    GET: "get",
    PUT: "put",
    REMOVE: "remove",
    REPAIR: "repair",
    PING: "ping",
    WIRE: "wire",
    TICK: "tick",
    COUNTERS: "counters",
    ROOTS: "roots",
    STAT: "stat",
    APPLY_RING: "apply-ring",
    HANDOFF: "handoff",
    SHUTDOWN: "shutdown",
}

# Response statuses.
OK = 0x00
ERR_ROUTING = 0x01      # the key is not owned by the addressed replica
ERR_TYPE = 0x02         # the typed operation was rejected by the key's type
ERR_BAD_REQUEST = 0x03  # unparseable / unknown verb
ERR_INTERNAL = 0x04     # anything else; message carries the repr

_BLOB_FLAG = 0x01
_JSON_FLAG = 0x02


def verb_name(verb: int) -> str:
    """Human name of a verb byte (for traces and error messages)."""
    return VERB_NAMES.get(verb, f"verb-0x{verb:02x}")


@dataclass(frozen=True)
class Request:
    """One decoded client/control request."""

    id: int
    verb: int
    key: Any = None
    op: Optional[str] = None
    args: Tuple = ()
    blob: bytes = b""
    body: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Response:
    """One decoded reply.  ``blob`` carries encoded lattice bytes
    (``None`` means "no value" — a GET of an unwritten key), ``body``
    carries control-plane JSON, ``error`` the failure message."""

    id: int
    status: int = OK
    blob: Optional[bytes] = None
    body: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == OK


def _write_sized(out: bytearray, data: bytes) -> None:
    write_uvarint(out, len(data))
    out += data


def _read_sized(cur: Cursor, what: str) -> bytes:
    length = read_uvarint(cur)
    if length > cur.remaining:
        raise FrameError(f"truncated {what}")
    return cur.take(length)


def _json_bytes(body: Dict[str, Any]) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def encode_request(request: Request) -> bytes:
    out = bytearray()
    write_uvarint(out, request.id)
    out.append(request.verb)
    if request.verb in (GET, REMOVE):
        write_atom(out, request.key)
    elif request.verb == PUT:
        write_atom(out, request.key)
        write_atom(out, request.op)
        write_atom(out, tuple(request.args))
    elif request.verb == REPAIR:
        _write_sized(out, request.blob)
    elif request.verb in (WIRE, APPLY_RING, HANDOFF):
        _write_sized(out, _json_bytes(request.body))
    return bytes(out)


def decode_request(data: bytes) -> Request:
    try:
        buf = Cursor(data)
        request_id = read_uvarint(buf)
        if not buf.remaining:
            raise FrameError("truncated request: missing verb")
        verb = buf.byte()
        if verb in (GET, REMOVE):
            return Request(request_id, verb, key=read_atom(buf))
        if verb == PUT:
            key = read_atom(buf)
            op = read_atom(buf)
            args = read_atom(buf)
            if not isinstance(op, str) or not isinstance(args, tuple):
                raise FrameError("malformed put request")
            return Request(request_id, verb, key=key, op=op, args=args)
        if verb == REPAIR:
            return Request(request_id, verb, blob=_read_sized(buf, "repair blob"))
        if verb in (WIRE, APPLY_RING, HANDOFF):
            body = json.loads(_read_sized(buf, "control body").decode("utf-8"))
            if not isinstance(body, dict):
                raise FrameError("control body must be a JSON object")
            return Request(request_id, verb, body=body)
        if verb in VERB_NAMES:
            return Request(request_id, verb)
        raise FrameError(f"unknown verb 0x{verb:02x}")
    except FrameError:
        raise
    except (CodecError, ValueError, EOFError) as exc:
        raise FrameError(f"bad request frame: {exc}") from exc


def encode_response(response: Response) -> bytes:
    out = bytearray()
    write_uvarint(out, response.id)
    out.append(response.status)
    if response.status != OK:
        write_atom(out, response.error or "")
        return bytes(out)
    flags = 0
    if response.blob is not None:
        flags |= _BLOB_FLAG
    if response.body:
        flags |= _JSON_FLAG
    out.append(flags)
    if response.blob is not None:
        _write_sized(out, response.blob)
    if response.body:
        _write_sized(out, _json_bytes(response.body))
    return bytes(out)


def decode_response(data: bytes) -> Response:
    try:
        buf = Cursor(data)
        request_id = read_uvarint(buf)
        if not buf.remaining:
            raise FrameError("truncated response: missing status")
        status = buf.byte()
        if status != OK:
            error = read_atom(buf)
            if not isinstance(error, str):
                raise FrameError("error message must be a string")
            return Response(request_id, status, error=error)
        if not buf.remaining:
            raise FrameError("truncated response: missing flags")
        flags = buf.byte()
        blob: Optional[bytes] = None
        body: Dict[str, Any] = {}
        if flags & _BLOB_FLAG:
            blob = _read_sized(buf, "response blob")
        if flags & _JSON_FLAG:
            body = json.loads(_read_sized(buf, "response body").decode("utf-8"))
        return Response(request_id, status, blob=blob, body=body)
    except FrameError:
        raise
    except (CodecError, ValueError, EOFError) as exc:
        raise FrameError(f"bad response frame: {exc}") from exc

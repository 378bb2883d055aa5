"""Length-prefixed framing, shared by every socket in the tree.

Three planes speak it — the in-process TCP transport
(:mod:`repro.net.tcp`), the replica processes' peer plane, and the
client/control plane of :mod:`repro.serve.frames`:

``frame := u32be(length) body``

A peer connection opens with one frame holding ``uvarint(sender
replica index)`` (:func:`hello`); every later frame is a
:func:`repro.codec.frame_message` envelope.

The length prefix is outside input wherever it is read, so the cap is
enforced here, once, for blocking and asyncio readers alike: a declared
length above :data:`MAX_FRAME_BYTES` raises :class:`FrameError` before
a single body byte is awaited or allocated.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Optional

from repro.codec import CodecError, Cursor, read_uvarint, write_uvarint

#: Bytes of the per-frame length prefix, counted as framing metadata.
LENGTH_PREFIX_BYTES = 4

#: Refuse absurd frames instead of allocating on a corrupt prefix.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_PREFIX = struct.Struct(">I")


class FrameError(CodecError):
    """A frame that does not parse; the connection should be dropped."""


def frame(body: bytes) -> bytes:
    """Prefix a body with its big-endian length."""
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {len(body)} bytes")
    return _PREFIX.pack(len(body)) + body


def _declared_length(header: bytes) -> int:
    (length,) = _PREFIX.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {length} bytes")
    return length


def hello(replica: int) -> bytes:
    """The framed handshake a dialing replica opens a peer link with."""
    body = bytearray()
    write_uvarint(body, replica)
    return frame(bytes(body))


def read_hello(body: bytes) -> int:
    """The sender index a :func:`hello` frame's body names."""
    return read_uvarint(Cursor(body))


# ---------------------------------------------------------------------------
# asyncio streams (the replicas and the in-process TCP transport).
# ---------------------------------------------------------------------------


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next frame's body; ``None`` once the peer has closed."""
    try:
        header = await reader.readexactly(LENGTH_PREFIX_BYTES)
        return await reader.readexactly(_declared_length(header))
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None  # peer closed; normal at shutdown


async def dial(host: str, port: int, replica: int) -> asyncio.StreamWriter:
    """Open a peer link and introduce ``replica`` on it."""
    _, writer = await asyncio.open_connection(host, port)
    writer.write(hello(replica))
    return writer


# ---------------------------------------------------------------------------
# Blocking sockets (the controller and clients are plain synchronous
# callers; only the replicas run an event loop).
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, body: bytes) -> None:
    sock.sendall(frame(body))


def _recv_exact(sock: socket.socket, length: int) -> bytes:
    chunks = []
    remaining = length
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes:
    length = _declared_length(_recv_exact(sock, LENGTH_PREFIX_BYTES))
    return _recv_exact(sock, length) if length else b""

"""One OS process serving one replica of the sharded CRDT store.

This is the jump from "harness that converges" to "system that
serves": where :class:`~repro.net.tcp.AsyncTcpTransport` hosts every
replica inside one asyncio loop, a :class:`ReplicaProcess` is a real
process with its own event loop, its own WAL directory (advisory-locked
— see :class:`~repro.wal.storage.FileStorage`), and two listening
sockets:

* the **peer plane** speaks exactly the wire format of the in-process
  TCP transport (:mod:`repro.net.framing`) — ``u32be(length)`` frames
  of :func:`repro.codec.frame_message` envelopes, one uvarint handshake
  naming the dialing replica — so the synchronizers, the repair
  escalation, and the handoff protocol run unmodified over genuinely
  separate processes;
* the **client/control plane** speaks :mod:`repro.serve.frames` — the
  get/put/remove/repair data verbs a :class:`~repro.serve.client.
  KVClient` uses and the wire/tick/counters/roots control verbs the
  :class:`~repro.serve.cluster.ProcessCluster` controller drives
  rounds with.

Startup is the WAL-first recovery story of PR 4 run for real: the
process opens (and locks) its ``FileStorage`` directory, replays every
owned shard locally, and joins the cluster with only the genuinely
divergent remainder left for digest repair.  On boot it binds both
listeners on ephemeral ports and writes a small JSON *portfile* into
the run directory; the controller collects these and distributes the
address map with a WIRE command — replicas never guess each other's
ports.

The process deliberately has **no timers of its own**: anti-entropy
runs when the controller says TICK, exactly like the round-stepped
transports, so experiment schedules stay deterministic and comparable.
Everything store-touching runs on the single event-loop thread, so
handler interleaving is the only concurrency and the store needs no
locks.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.codec import decode, decode_message, encode, frame_message
from repro.kv.antientropy import AntiEntropyConfig
from repro.kv.driver import KV_ALGORITHMS
from repro.kv.ring import HashRing
from repro.kv.store import KVRoutingError, KVStore
from repro.kv.types import Schema
from repro.lattice.map_lattice import MapLattice
from repro.net import framing
from repro.serve import frames
from repro.serve.frames import FrameError, Request, Response
from repro.sync.protocol import Send
from repro.wal import FileStorage, ReplicaWal, WalConfig

HOST = "127.0.0.1"

#: Milliseconds the shutdown handler waits for the response frame to
#: flush before tearing the loop down.
_SHUTDOWN_GRACE_S = 0.2


@dataclass(frozen=True)
class ReplicaOptions:
    """Everything one replica process needs to build its store.

    Every process of a cluster is started with the same shape
    parameters (`replicas`, `shards`, `replication`), so each one
    reconstructs the *identical* :class:`~repro.kv.ring.HashRing`
    locally — placement is a pure function of those parameters, and
    never travels over the wire.
    """

    replica: int
    replicas: Tuple[int, ...]
    run_dir: str
    shards: int = 32
    replication: int = 3
    algorithm: str = "delta-based-bp-rr"
    #: ``None`` disables the WAL (the ``repair`` recovery policy);
    #: otherwise the directory this replica's logs live in.
    wal_dir: Optional[str] = None
    #: ``wal`` replays and trusts the log; ``wal+repair`` replays and
    #: marks every δ-path suspect (immediate verification probes).
    recovery: str = "wal"
    wal_compact_bytes: Optional[int] = 64 * 1024
    budget_bytes: Optional[int] = None
    repair_interval: int = 0
    repair_fanout: int = 1
    repair_mode: str = "blanket"
    #: Directory for this process's trace file (``None`` = off); the
    #: file is named ``r{replica:03d}.jsonl`` and stamped with
    #: ``origin=replica`` so a directory of them merges offline.
    trace_dir: Optional[str] = None

    def antientropy(self) -> AntiEntropyConfig:
        return AntiEntropyConfig(
            budget_bytes=self.budget_bytes,
            repair_interval=self.repair_interval,
            repair_fanout=self.repair_fanout,
            repair_mode=self.repair_mode,
        )

    def ring(self) -> HashRing:
        return HashRing(
            self.replicas, n_shards=self.shards, replication=self.replication
        )


#: verb → handler, filled by :func:`_handles` as the class body runs.
_HANDLERS: Dict[int, Callable[["ReplicaProcess", Request], Any]] = {}


def _handles(*verbs: int):
    """Register the decorated method as the handler of ``verbs``."""

    def register(handler):
        for verb in verbs:
            _HANDLERS[verb] = handler
        return handler

    return register


def _bad_request(exc: FrameError) -> Response:
    """The typed reply to a frame that does not parse (no request id)."""
    return Response(0, frames.ERR_BAD_REQUEST, error=str(exc))


def portfile_path(run_dir: str, replica: int) -> str:
    """Where replica ``replica`` publishes its bound ports."""
    return os.path.join(run_dir, f"r{replica:03d}.ports.json")


class ReplicaProcess:
    """The serving loop: one store, one peer listener, one client listener."""

    def __init__(self, options: ReplicaOptions) -> None:
        self.options = options
        self.replica = options.replica
        self.round = 0
        self._epoch = time.monotonic()
        # Wiring state, updated by WIRE commands.
        self.peer_addrs: Dict[int, Tuple[str, int]] = {}
        self.down: set = set()
        self.blocked: set = set()
        # Counters the controller's termination detection polls.
        self.frames_sent = 0
        self.frames_delivered = 0
        self.sends_blocked = 0
        self.messages = 0
        self.payload_bytes = 0
        self.metadata_bytes = 0
        self.client_ops = 0
        # Event-loop plumbing.
        self._peer_writers: Dict[int, asyncio.StreamWriter] = {}
        self._servers: List[asyncio.base_events.Server] = []
        self._shutdown = asyncio.Event()

        self.tracer = None
        if options.trace_dir is not None:
            from repro.obs.trace import FileTraceSink, Tracer

            path = os.path.join(options.trace_dir, f"r{options.replica:03d}.jsonl")
            self.tracer = Tracer(FileTraceSink(path), origin=options.replica)
            self.tracer.bind(self._now, lambda: self.round)

        self.storage: Optional[FileStorage] = None
        wal: Optional[ReplicaWal] = None
        if options.wal_dir is not None:
            # The advisory lock is the whole point of serving from real
            # processes: a stale twin still holding this replica's
            # directory fails *here*, loudly, before any log is touched.
            self.storage = FileStorage(options.wal_dir, lock=True)
            wal = ReplicaWal(
                options.replica,
                storage=self.storage,
                config=WalConfig(compact_bytes=options.wal_compact_bytes),
                tracer=self.tracer,
            )

        ring = options.ring()
        neighbors = tuple(r for r in options.replicas if r != options.replica)
        self.store = KVStore(
            replica=options.replica,
            neighbors=neighbors,
            bottom=MapLattice(),
            n_nodes=max(options.replicas) + 1,
            ring=ring,
            inner_factory=KV_ALGORITHMS[options.algorithm],
            schema=Schema(),
            antientropy=options.antientropy(),
            wal=wal,
            tracer=self.tracer,
        )
        #: Shards restored by the boot-time WAL replay (recovery proof
        #: the smoke test asserts on via STAT).
        self.replayed_shards = 0
        if wal is not None:
            self.replayed_shards = self.store.replay_wal(
                verify=options.recovery == "wal+repair"
            )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def _now(self) -> float:
        return (time.monotonic() - self._epoch) * 1000.0

    def run(self) -> None:
        """Serve until SHUTDOWN (the ``repro serve-replica`` entrypoint)."""
        asyncio.run(self.serve())

    async def serve(self) -> None:
        peer_server = await asyncio.start_server(self._accept_peer, HOST, 0)
        client_server = await asyncio.start_server(self._accept_client, HOST, 0)
        self._servers = [peer_server, client_server]
        peer_port = peer_server.sockets[0].getsockname()[1]
        client_port = client_server.sockets[0].getsockname()[1]
        self._write_portfile(peer_port, client_port)
        try:
            await self._shutdown.wait()
        finally:
            for server in self._servers:
                server.close()
            for server in self._servers:
                await server.wait_closed()
            for writer in self._peer_writers.values():
                writer.close()
            if self.tracer is not None:
                self.tracer.close()
            if self.storage is not None:
                self.storage.release_lock()

    def _write_portfile(self, peer_port: int, client_port: int) -> None:
        os.makedirs(self.options.run_dir, exist_ok=True)
        path = portfile_path(self.options.run_dir, self.replica)
        payload = json.dumps(
            {
                "replica": self.replica,
                "pid": os.getpid(),
                "peer_port": peer_port,
                "client_port": client_port,
                "replayed_shards": self.replayed_shards,
            }
        )
        # Atomic publish: the controller polls for this file and must
        # never read a torn write.
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Peer plane: the AsyncTcpTransport wire format, process-to-process.
    # ------------------------------------------------------------------

    async def _accept_peer(self, reader, writer) -> None:
        try:
            handshake = await framing.read_frame(reader)
            if handshake is None:
                return
            src = framing.read_hello(handshake)
            while True:
                data = await framing.read_frame(reader)
                if data is None:
                    return
                await self._deliver_peer_frame(src, data)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, FrameError):
            # A refused length prefix cannot be resynchronised past;
            # the peer plane has no error frame, so just hang up.
            pass
        finally:
            writer.close()

    async def _deliver_peer_frame(self, src: int, data: bytes) -> None:
        message = decode_message(data)
        if self.tracer is not None:
            self.tracer.emit(
                "deliver",
                replica=src,
                peer=self.replica,
                kind=message.kind,
                payload_bytes=message.payload_bytes,
                metadata_bytes=message.metadata_bytes,
            )
        replies = self.store.handle_message(src, message)
        await self._dispatch_sends(replies)
        # Count delivery *after* replies are queued as sent: the
        # controller's quiescence check (sent == delivered, stable)
        # then never observes a state where this frame is consumed but
        # its consequences are invisible.
        self.frames_delivered += 1

    async def _dispatch_sends(self, sends: Sequence[Send]) -> None:
        for send in sends:
            dst = send.dst
            refused = dst in self.down or dst in self.blocked
            writer = None if refused else await self._peer_writer(dst)
            if writer is None:
                # Refused by the fault state, or no route to the peer:
                # nothing crossed the wire, but the store learns the
                # peer is unreachable (suspicion feeds digest repair).
                self.sends_blocked += 1
                self.store.note_send_blocked(dst)
                if self.tracer is not None:
                    self.tracer.emit(
                        "send-blocked",
                        replica=self.replica,
                        peer=dst,
                        kind=send.message.kind,
                    )
                continue
            frame = frame_message(send.message)
            payload = frame.payload_bytes
            metadata = frame.metadata_bytes + framing.LENGTH_PREFIX_BYTES
            self.messages += 1
            self.payload_bytes += payload
            self.metadata_bytes += metadata
            if self.tracer is not None:
                self.tracer.emit(
                    "send",
                    replica=self.replica,
                    peer=dst,
                    kind=send.message.kind,
                    payload_bytes=payload,
                    metadata_bytes=metadata,
                    payload_units=send.message.payload_units,
                    metadata_units=send.message.metadata_units,
                )
            writer.write(framing.frame(frame.data))
            try:
                await writer.drain()
                self.frames_sent += 1
            except ConnectionError:
                # The peer died with the frame in flight: it was never
                # delivered, and counting it as sent would wedge the
                # controller's quiescence check.
                self._drop_peer_writer(dst)
                self.store.note_send_blocked(dst)

    async def _peer_writer(self, dst: int) -> Optional[asyncio.StreamWriter]:
        writer = self._peer_writers.get(dst)
        if writer is not None and not writer.is_closing():
            return writer
        addr = self.peer_addrs.get(dst)
        if addr is None:
            return None
        try:
            writer = await framing.dial(addr[0], addr[1], self.replica)
        except OSError:
            return None
        self._peer_writers[dst] = writer
        return writer

    def _drop_peer_writer(self, dst: int) -> None:
        writer = self._peer_writers.pop(dst, None)
        if writer is not None:
            writer.close()

    # ------------------------------------------------------------------
    # Client/control plane.
    # ------------------------------------------------------------------

    async def _accept_client(self, reader, writer) -> None:
        try:
            while True:
                try:
                    data = await framing.read_frame(reader)
                except FrameError as exc:
                    # A refused length prefix: the stream cannot be
                    # resynchronised, so say why and hang up.
                    await self._reply(writer, _bad_request(exc))
                    return
                if data is None:
                    return
                stop = await self._serve_request(data, writer)
                if stop:
                    return
        except asyncio.CancelledError:
            raise
        except ConnectionError:
            pass
        finally:
            writer.close()

    @staticmethod
    async def _reply(writer, response: Response) -> None:
        writer.write(framing.frame(frames.encode_response(response)))
        await writer.drain()

    async def _serve_request(self, data: bytes, writer) -> bool:
        """Handle one framed request; returns True on SHUTDOWN."""
        try:
            request = frames.decode_request(data)
        except FrameError as exc:
            await self._reply(writer, _bad_request(exc))
            return False
        try:
            response = _HANDLERS[request.verb](self, request)
            if asyncio.iscoroutine(response):
                response = await response
        except KVRoutingError as exc:
            response = Response(request.id, frames.ERR_ROUTING, error=str(exc))
        except (TypeError, ValueError, KeyError) as exc:
            response = Response(request.id, frames.ERR_TYPE, error=str(exc))
        except Exception as exc:  # anything else: report, keep serving
            response = Response(request.id, frames.ERR_INTERNAL, error=repr(exc))
        await self._reply(writer, response)
        if request.verb == frames.SHUTDOWN and response.ok:
            await asyncio.sleep(_SHUTDOWN_GRACE_S)
            self._shutdown.set()
            return True
        return False

    @_handles(frames.PUT)
    def _handle_put(self, request: Request) -> Response:
        self.client_ops += 1
        self._trace_client_op("put", request.key)
        delta = self.store.update(request.key, request.op, *request.args)
        return Response(request.id, blob=encode(delta))

    @_handles(frames.REMOVE)
    def _handle_remove(self, request: Request) -> Response:
        self.client_ops += 1
        self._trace_client_op("remove", request.key)
        delta = self.store.remove(request.key)
        return Response(request.id, blob=encode(delta))

    @_handles(frames.REPAIR)
    def _handle_repair(self, request: Request) -> Response:
        fragment = decode(request.blob)
        if not isinstance(fragment, MapLattice):
            raise ValueError("repair fragment must be a keyspace MapLattice")
        absorbed = self.store.absorb_client_state(
            fragment, payload_bytes=len(request.blob)
        )
        return Response(request.id, body={"absorbed": not absorbed.is_bottom})

    @_handles(frames.PING, frames.SHUTDOWN)
    def _handle_ping(self, request: Request) -> Response:
        return Response(request.id, body={"replica": self.replica})

    @_handles(frames.TICK)
    async def _handle_tick(self, request: Request) -> Response:
        sends = self.store.sync_messages()
        await self._dispatch_sends(sends)
        self.round += 1
        if self.tracer is not None:
            self.tracer.emit("round", round=self.round - 1)
        return Response(request.id, body={"round": self.round})

    @_handles(frames.COUNTERS)
    def _handle_counters(self, request: Request) -> Response:
        return Response(
            request.id,
            body={
                "sent": self.frames_sent,
                "delivered": self.frames_delivered,
                "blocked": self.sends_blocked,
            },
        )

    @_handles(frames.ROOTS)
    def _handle_roots(self, request: Request) -> Response:
        # Hosted shards by their cached roots; shards this replica only
        # still sources a pending handoff from are listed apart, so the
        # controller's planner can see a retained copy as a candidate.
        roots: Dict[str, str] = {}
        retained: Dict[str, str] = {}
        for shard, copy in sorted(self.store.copies().items()):
            held = roots if shard in self.store.shards else retained
            held[str(shard)] = copy.root().hex()
        return Response(request.id, body={"roots": roots, "retained": retained})

    @_handles(frames.STAT)
    def _handle_stat(self, request: Request) -> Response:
        return Response(request.id, body=self._stat())

    @_handles(frames.HANDOFF)
    def _handle_handoff(self, request: Request) -> Response:
        self.store.handoff.begin(
            int(request.body["shard"]), int(request.body["dst"])
        )
        return Response(request.id)

    @_handles(frames.GET)
    def _handle_get(self, request: Request) -> Response:
        self.client_ops += 1
        self._trace_client_op("get", request.key)
        value = self.store.value_lattice(request.key)
        if value is None:
            # Owned but unwritten: OK with no blob (blob=None encodes
            # as "absent", distinct from an encoded bottom).
            return Response(request.id)
        return Response(request.id, blob=encode(value))

    def _trace_client_op(self, kind: str, key: Any) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                "client-op",
                replica=self.replica,
                kind=kind,
                label=str(key),
            )

    @_handles(frames.WIRE)
    def _handle_wire(self, request: Request) -> Response:
        body = request.body
        self.peer_addrs = {
            int(replica): (str(host), int(port))
            for replica, (host, port) in body["addresses"].items()
            if int(replica) != self.replica
        }
        self.down = {int(r) for r in body["down"]}
        self.blocked = {int(r) for r in body["blocked"]}
        # Re-dial lazily: writers to peers that left the address map,
        # died, or respawned on a fresh socket are dropped here and
        # reopened at the next send.
        stale = (set(self._peer_writers) - set(self.peer_addrs)) | self.down
        for dst in stale.union(int(r) for r in body["reconnect"]):
            self._drop_peer_writer(dst)
        round_value = int(body.get("round", 0))
        if round_value > self.round:
            # A respawned process joining mid-run: realign the repair
            # scheduler with the cluster round so replayed δ-paths are
            # warm and coldness thresholds keep their meaning.
            self.round = round_value
            self.store.restore_clock(round_value)
        return Response(request.id, body={"round": self.round})

    @_handles(frames.APPLY_RING)
    def _handle_apply_ring(self, request: Request) -> Response:
        body = request.body
        replicas = tuple(int(r) for r in body["replicas"])
        ring = HashRing(
            replicas,
            n_shards=self.options.shards,
            replication=self.options.replication,
        )
        self.store.apply_ring(
            ring,
            retain=frozenset(int(s) for s in body.get("retain", ())),
            fence=bool(body.get("fence", True)),
            # Membership grew or shrank, and the overlay is always the
            # full replica set.
            neighbors=tuple(r for r in replicas if r != self.replica),
        )
        return Response(request.id, body={"shards": sorted(self.store.shards)})

    def _stat(self) -> Dict[str, Any]:
        snapshot = {
            name: value
            for name, value in self.store.registry.snapshot().items()
            if isinstance(value, (int, float))
        }
        return {
            "replica": self.replica,
            "pid": os.getpid(),
            "round": self.round,
            "messages": self.messages,
            "payload_bytes": self.payload_bytes,
            "metadata_bytes": self.metadata_bytes,
            "blocked": self.sends_blocked,
            "client_ops": self.client_ops,
            "pending_handoffs": self.store.handoff.pending(),
            "replayed_shards": self.replayed_shards,
            "state_bytes": self.store.state_bytes(),
            "memory_bytes": self.store.state_bytes()
            + self.store.buffer_bytes()
            + self.store.metadata_bytes(),
            "shards": len(self.store.shards),
            "registry": snapshot,
        }


# Complete by construction: a verb the frame codec knows but no method
# handles (or the reverse) stops the module from importing at all.
if set(_HANDLERS) != set(frames.VERB_NAMES):
    raise ImportError(
        "verb handlers out of step with the frame codec: "
        f"{sorted(set(_HANDLERS) ^ set(frames.VERB_NAMES))}"
    )

"""One OS process serving one replica of the sharded CRDT store.

A replica process hosts the same stack an in-process replica runs on:
one :class:`~repro.kv.store.KVStore` behind a :class:`~repro.net.
runtime.ReplicaRuntime`, on the socket peer plane of :class:`~repro.
net.tcp.AsyncTcpTransport`.  The accept loop, the admit → frame →
account → trace send sequence and the ``tick``/``deliver`` entry points
are that transport's and that runtime's; a :class:`PeerPlane` is the
plane with this replica as its one endpoint, whose peers are other
processes dialled lazily from the addresses WIRE delivers.  What the
process adds is its own edge:

* its own event loop (the peer plane's), its own WAL directory
  (advisory-locked — see :class:`~repro.wal.storage.FileStorage`), and
  a second listening socket, the **client/control plane**, speaking
  :mod:`repro.serve.frames` — the get/put/remove/repair data verbs a
  :class:`~repro.serve.client.KVClient` uses and the
  wire/tick/counters/roots control verbs the :class:`~repro.serve.
  cluster.ProcessCluster` controller drives rounds with;
* its configuration, one :class:`ReplicaOptions` value handed over as
  JSON (``repro serve-replica --options JSON``) and rebuilt through the
  dataclasses' own validation.

Startup is WAL-first recovery run for real: the process opens (and
locks) its ``FileStorage`` directory, replays every owned shard
locally, and joins the cluster with only the genuinely divergent
remainder left for digest repair.  On boot it binds both listeners on
ephemeral ports and writes a small JSON *portfile* into the run
directory; the controller collects these and distributes the address
map with a WIRE command — replicas never guess each other's ports.

The process deliberately has **no timers of its own**: anti-entropy
runs when the controller says TICK, exactly like the round-stepped
transports, so experiment schedules stay deterministic and comparable.
Everything store-touching runs on the single event-loop thread, so
handler interleaving is the only concurrency and the store needs no
locks.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.codec import decode, encode
from repro.config import build_config
from repro.kv.antientropy import AntiEntropyConfig
from repro.kv.driver import KV_ALGORITHMS, check_recovery
from repro.kv.ring import HashRing
from repro.kv.store import KVRoutingError, KVStore
from repro.kv.types import Schema
from repro.lattice.map_lattice import MapLattice
from repro.net import framing
from repro.net.runtime import ReplicaRuntime
from repro.net.tcp import AsyncTcpTransport
from repro.serve import frames
from repro.serve.frames import FrameError, Request, Response
from repro.sim.metrics import MetricsCollector
from repro.sim.network import ClusterConfig
from repro.sim.topology import Topology
from repro.wal import FileStorage, ReplicaWal, WalConfig

HOST = AsyncTcpTransport.HOST

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
    never travels over the wire.  The controller spells every value
    (and every default) once; :meth:`to_json` / :meth:`from_json` carry
    the whole value across the process boundary.
    """

    replica: int
    replicas: Tuple[int, ...]
    run_dir: str
    shards: int
    replication: int
    algorithm: str
    antientropy: AntiEntropyConfig
    #: ``repair`` keeps no WAL; ``wal`` replays and trusts the log;
    #: ``wal+repair`` replays and marks every δ-path suspect.
    recovery: str
    wal: WalConfig
    #: Directory for this process's trace file (``None`` = off); the
    #: file is named ``r{replica:03d}.jsonl`` and stamped with
    #: ``origin=replica`` so a directory of them merges offline.
    trace_dir: Optional[str]

    def __post_init__(self) -> None:
        check_recovery(self.recovery)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ReplicaOptions":
        return build_config(cls, json.loads(text))


class PeerPlane(AsyncTcpTransport):
    """The socket peer plane with this process's replica as its one endpoint.

    Peers are other processes.  Their addresses, the down set and this
    replica's side of a partition arrive by WIRE (:meth:`rewire`), so
    :meth:`link_up` refuses exactly what the controller's fault state
    says; a peer is dialled at its first frame.  Rounds are the
    controller's (TICK), so the plane is driven step by step: whatever
    a tick or a delivery queued goes out in :meth:`flush`.  Each frame
    counts in ``frames_sent`` once its ``drain()`` succeeded, and an
    inbound frame counts in ``frames_delivered`` only after its replies
    did — the order the controller's quiescence double count needs.
    """

    def __init__(self, replica: int, config: ClusterConfig, metrics) -> None:
        super().__init__(config, metrics)
        self.replica = replica
        self.addresses: Dict[int, Tuple[str, int]] = {}
        #: This endpoint's outbound links, by peer.
        self._links = self._writers[replica] = {}
        # Until the first WIRE no peer has an address: none is reachable.
        self._groups = (frozenset([replica]),)
        self.frames_sent = 0
        self.frames_delivered = 0

    def run(self, main) -> None:
        """Run ``main`` on this plane's loop, then tear the plane down."""
        try:
            self._loop.run_until_complete(main)
        finally:
            self.close()

    async def _open_sockets(self) -> None:
        """Open the replica's peer listener (peers are dialled later)."""
        server = await asyncio.start_server(
            functools.partial(self._accept, self.replica), self.HOST, 0
        )
        self._servers.append(server)
        #: The peer port this process publishes in its portfile.
        self.port = server.sockets[0].getsockname()[1]

    def rewire(self, addresses, down, blocked, reconnect) -> None:
        """Adopt the controller's view of peers and faults."""
        self.addresses = {r: a for r, a in addresses.items() if r != self.replica}
        self.down = set(down)
        # This replica's side of the cut and the far side; a replica
        # with no address is on neither side of a live link.
        near = frozenset(self.addresses).union([self.replica])
        self._groups = (near - frozenset(blocked), frozenset(blocked))
        # Links to peers that left the address map, died, or respawned
        # on a fresh socket are dropped here and re-dialled at the next
        # frame.
        stale = (set(self._links) - set(self.addresses)) | self.down
        for dst in stale.union(reconnect):
            self._drop(dst)

    def _drop(self, dst: int) -> None:
        writer = self._links.pop(dst, None)
        if writer is not None:
            writer.close()

    def _enqueue(self, src: int, dst: int, data: bytes) -> None:
        self._outbox.append((src, dst, data))

    async def flush(self) -> None:
        """Write the frames queued since the last flush, one by one."""
        batch, self._outbox = self._outbox, deque()
        for src, dst, data in batch:
            try:
                writer = self._links.get(dst)
                if writer is None or writer.is_closing():
                    host, port = self.addresses[dst]
                    writer = await framing.dial(host, port, src)
                    self._links[dst] = writer
                writer.write(framing.frame(data))
                await writer.drain()
            except OSError:
                # The peer died with the frame in flight (or before the
                # dial): it was never delivered, and counting it as sent
                # would wedge the controller's quiescence check.
                self._drop(dst)
                self.runtimes[src].note_send_blocked(dst)
            else:
                self.frames_sent += 1

    def _deliver_frame(self, src: int, dst: int, data: bytes):
        self._receive(src, dst, data)
        return self._delivered()

    async def _delivered(self) -> None:
        await self.flush()
        self.frames_delivered += 1

    def _peer_failed(self, exc: BaseException) -> None:
        # A refused length prefix cannot be resynchronised past and the
        # peer plane has no error frame: hang up, keep serving.
        if not isinstance(exc, (ConnectionError, FrameError)):
            raise exc


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


def wal_path(run_dir: str, replica: int) -> str:
    """Replica ``replica``'s WAL directory: one per replica, because the
    advisory lock is per directory and a respawn must find exactly its
    predecessor's logs."""
    return os.path.join(run_dir, "wal", f"r{replica:03d}")


class ReplicaProcess:
    """The serving loop: one runtime on the peer plane, one client listener."""

    def __init__(self, options: ReplicaOptions) -> None:
        self.options = options
        self.replica = options.replica
        self.round = 0
        self.client_ops = 0
        self._shutdown = asyncio.Event()
        seats = max(options.replicas) + 1
        # One endpoint: the overlay is the store's neighbour set.
        self.peers = PeerPlane(
            options.replica,
            ClusterConfig(Topology.from_edges("replica process", 1, ())),
            MetricsCollector(seats),
        )

        self.tracer = None
        if options.trace_dir is not None:
            from repro.obs.trace import FileTraceSink, Tracer

            path = os.path.join(options.trace_dir, f"r{options.replica:03d}.jsonl")
            self.tracer = Tracer(FileTraceSink(path), origin=options.replica)
            self.tracer.bind(lambda: self.peers.now, lambda: self.round)
            self.peers.tracer = self.tracer

        self.storage: Optional[FileStorage] = None
        wal: Optional[ReplicaWal] = None
        if options.recovery != "repair":
            # The advisory lock is the whole point of serving from real
            # processes: a stale twin still holding this replica's
            # directory fails *here*, loudly, before any log is touched.
            self.storage = FileStorage(
                wal_path(options.run_dir, options.replica), lock=True
            )
            wal = ReplicaWal(
                options.replica,
                storage=self.storage,
                config=options.wal,
                tracer=self.tracer,
            )

        self.store = KVStore(
            replica=options.replica,
            neighbors=tuple(r for r in options.replicas if r != options.replica),
            bottom=MapLattice(),
            n_nodes=seats,
            ring=HashRing(
                options.replicas,
                n_shards=options.shards,
                replication=options.replication,
            ),
            inner_factory=KV_ALGORITHMS[options.algorithm],
            schema=Schema(),
            antientropy=options.antientropy,
            wal=wal,
            tracer=self.tracer,
        )
        self.runtime = ReplicaRuntime(self.store, self.peers.metrics)
        self.peers.bind([self.runtime])
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

    def run(self) -> None:
        """Serve until SHUTDOWN (the ``repro serve-replica`` entrypoint)."""
        try:
            self.peers.run(self.serve())
        finally:
            if self.tracer is not None:
                self.tracer.close()
            if self.storage is not None:
                self.storage.release_lock()

    async def serve(self) -> None:
        client_server = await asyncio.start_server(self._accept_client, HOST, 0)
        client_port = client_server.sockets[0].getsockname()[1]
        self._write_portfile(self.peers.port, client_port)
        try:
            await self._shutdown.wait()
        finally:
            client_server.close()
            # End every connection still open, as asyncio.run would.
            others = asyncio.all_tasks() - {asyncio.current_task()}
            for task in others:
                task.cancel()
            await asyncio.gather(*others, return_exceptions=True)

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
        self.runtime.tick()
        await self.peers.flush()
        self.round += 1
        if self.tracer is not None:
            self.tracer.emit("round", round=self.round - 1)
        return Response(request.id, body={"round": self.round})

    @_handles(frames.COUNTERS)
    def _handle_counters(self, request: Request) -> Response:
        return Response(
            request.id,
            body={
                "sent": self.peers.frames_sent,
                "delivered": self.peers.frames_delivered,
                "blocked": self.peers.messages_blocked,
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
        self.peers.rewire(
            {
                int(replica): (str(host), int(port))
                for replica, (host, port) in body["addresses"].items()
            },
            down={int(r) for r in body["down"]},
            blocked={int(r) for r in body["blocked"]},
            reconnect={int(r) for r in body["reconnect"]},
        )
        round_value = int(body.get("round", 0))
        if round_value > self.round:
            # A respawned process joining mid-run: realign the repair
            # scheduler with the cluster round so replayed δ-paths are
            # warm and coldness thresholds keep their meaning.
            self.round = round_value
            self.runtime.restore_clock(round_value)
        return Response(request.id, body={"round": self.round})

    @_handles(frames.APPLY_RING)
    def _handle_apply_ring(self, request: Request) -> Response:
        body = request.body
        replicas = tuple(int(r) for r in body["replicas"])
        self.store.apply_ring(
            HashRing(
                replicas,
                n_shards=self.options.shards,
                replication=self.options.replication,
            ),
            retain=frozenset(int(s) for s in body.get("retain", ())),
            fence=bool(body.get("fence", True)),
            # The overlay is every seat ever placed, like the in-process
            # full mesh: a drained leaver still hears the acks of the
            # owners it hands off to.
            neighbors=tuple(
                sorted(set(self.store.neighbors).union(replicas) - {self.replica})
            ),
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
            "messages": self.peers.metrics.message_count,
            "payload_bytes": self.peers.metrics.total_payload_bytes(),
            "metadata_bytes": self.peers.metrics.total_metadata_bytes(),
            "blocked": self.peers.messages_blocked,
            "client_ops": self.client_ops,
            "pending_handoffs": self.store.handoff.pending(),
            "replayed_shards": self.replayed_shards,
            "state_bytes": self.store.state_bytes(),
            "memory_bytes": self.store.memory_bytes(),
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

"""The controller: spawn, wire, drive, and kill replica processes.

:class:`ProcessCluster` is the multi-process backend of the store's
cluster driver (:class:`~repro.kv.driver.KVDriver`; the in-process one
is :class:`~repro.kv.cluster.KVCluster`).  Routing, per-shard
convergence, the membership flow with its transfer planner, the counter
sums and the drain loop are the driver's, run here unmodified; this
module holds what a process boundary makes particular — every replica
is a real OS process started with ``python -m repro serve-replica``,
and everything the controller knows or does arrives over the control
plane of :mod:`repro.serve.frames`.

Coordination protocol, in the order a round runs:

1. workload updates go to their pre-routed owner replicas as PUT
   requests (one coordinator application each, exactly like the
   in-process harness);
2. TICK tells every live replica to run one anti-entropy tick — peer
   traffic then flows replica-to-replica over their own sockets,
   entirely outside the controller;
3. the controller polls COUNTERS and waits for **quiescence**: the
   global (frames sent, frames delivered) totals must agree and stay
   stable across consecutive polls — Mattern-style double counting,
   degraded gracefully: totals that stay *stable but unequal* mean the
   missing frames died with a killed process, and the gap is recorded
   as ``messages_severed`` instead of hanging the round.

Crash is SIGKILL — no goodbye, no flush; memory and staged WAL records
are genuinely gone, which is precisely the failure model
``crash(lose_state=True)`` simulates.  Recovery is a respawn over the
surviving WAL directory: the fresh process replays its shard logs
locally before serving, and a WIRE carrying the current round realigns
its repair scheduler.  Membership changes are the driver's plan
delivered by verb: APPLY_RING swaps rings, HANDOFF nominates the
planned sources, and the compacted WAL segments travel the peer plane;
the planner's view of who holds content comes from the same ROOTS sweep
convergence is judged by (the root of an empty shard is a constant).
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.codec import decode
from repro.driver import partition_groups
from repro.kv.antientropy import AntiEntropyConfig
from repro.kv.driver import KVDriver, ShardCopy, check_recovery
from repro.kv.ring import HashRing
from repro.kv.store import KVRoutingError, KVUpdate
from repro.kv.types import spec_for
from repro.net import framing
from repro.net.transport import TransportStalled
from repro.obs.trace import (
    CRASH,
    HEAL,
    PARTITION,
    RECOVER,
    ROUND,
    FileTraceSink,
    Tracer,
)
from repro.serve import frames
from repro.serve.frames import FrameError, Request, Response
from repro.serve.replica import HOST, ReplicaOptions, portfile_path
from repro.sync.digest import root_of

#: Seconds between COUNTERS polls while settling a round.
_POLL_INTERVAL_S = 0.01
#: Stable-and-equal polls required to declare a round quiescent.
_STABLE_POLLS = 2
#: Stable-but-unequal polls after which the gap is declared severed.
_SEVERED_POLLS = 20
#: STAT totals that must outlive the process that counted them.
_FOLDED_STATS = ("messages", "payload_bytes", "metadata_bytes", "client_ops")
#: What ROOTS reports for a shard nobody has written (hex, as on the wire).
_EMPTY_ROOT = root_of(frozenset()).hex()
#: Sync-only rounds ``drain()`` runs before it declares the run stuck.
_MAX_DRAIN_ROUNDS = 64
#: Seconds a spawned replica may take to publish its ports.
_SPAWN_TIMEOUT_S = 30.0
#: Seconds a round may take to reach quiescence.
_SETTLE_TIMEOUT_S = 30.0
#: Socket timeout of one client/control connection (``KVClient`` dials
#: replicas through :class:`ControlClient` too).
_REQUEST_TIMEOUT_S = 30.0


class ReplicaDied(RuntimeError):
    """A replica process exited when it was expected to be serving."""


def raise_for_status(response: Response) -> Response:
    """Map an error response onto the harness's exception types."""
    if response.ok:
        return response
    if response.status == frames.ERR_ROUTING:
        raise KVRoutingError(response.error or "routing error")
    if response.status == frames.ERR_TYPE:
        raise ValueError(response.error or "typed operation rejected")
    raise RuntimeError(
        f"replica error ({response.status}): {response.error or 'unknown'}"
    )


class ControlClient:
    """One synchronous client/control connection to a replica process."""

    def __init__(self, host: str, port: int) -> None:
        self.address = (host, port)
        self._sock: Optional[socket.socket] = None
        self._ids = itertools.count(1)

    def _connection(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self.address, timeout=_REQUEST_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def request(self, verb: int, **fields: Any) -> Response:
        """One request/response exchange (raises on error statuses)."""
        request = Request(next(self._ids), verb, **fields)
        sock = self._connection()
        try:
            framing.send_frame(sock, frames.encode_request(request))
            response = frames.decode_response(framing.recv_frame(sock))
        except (ConnectionError, socket.timeout, OSError):
            self.close()
            raise
        return raise_for_status(response)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None


class _ProcMetrics:
    """The slice of ``MetricsCollector`` the experiment tables read,
    aggregated from per-process STAT/COUNTERS reports (dead
    incarnations' totals are folded in at kill time)."""

    def __init__(self, cluster: "ProcessCluster") -> None:
        self._cluster = cluster

    @property
    def message_count(self) -> int:
        return self._cluster._sum_stat("messages")

    def total_payload_bytes(self) -> int:
        return self._cluster._sum_stat("payload_bytes")

    def total_metadata_bytes(self) -> int:
        return self._cluster._sum_stat("metadata_bytes")

    def average_memory_bytes(self) -> float:
        samples = self._cluster._memory_samples
        return sum(samples) / len(samples) if samples else 0.0


class ProcessCluster(KVDriver):
    """A cluster of one-replica OS processes behind the control plane."""

    #: Until the constructor has validated its ring there is nothing to close.
    _closed = True

    def __init__(
        self,
        n_replicas: int,
        *,
        shards: int = 32,
        replication: int = 3,
        algorithm: str = "delta-based-bp-rr",
        antientropy: Optional[AntiEntropyConfig] = None,
        recovery: str = "wal",
        run_dir: Optional[str] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        self.algorithm = algorithm
        self.antientropy = antientropy if antientropy is not None else AntiEntropyConfig()
        self.recovery = check_recovery(recovery)
        # Refuse an impossible ring before any directory, trace file or
        # process exists.
        self.replicas: List[int] = list(range(n_replicas))
        self.ring = HashRing(
            self.replicas, n_shards=shards, replication=replication
        )
        self.trace_dir = trace_dir
        self.tracer: Optional[Tracer] = None
        self.down: Set[int] = set()
        self.rounds_run = 0
        self.updates_skipped = 0
        self.messages_dropped = 0  # no loss model on the real wire
        self.messages_severed = 0

        self._procs: Dict[int, subprocess.Popen] = {}
        self._ports: Dict[int, Dict[str, int]] = {}
        self._controls: Dict[int, ControlClient] = {}
        self._groups: Optional[Tuple[frozenset, ...]] = None
        #: Last COUNTERS/STAT seen per live replica (folded into the
        #: base accumulators when the process is killed).
        self._last_counters: Dict[int, Dict[str, int]] = {}
        self._last_stats: Dict[int, Dict[str, Any]] = {}
        self._base_counters: Counter = Counter()
        self._base_stats: Counter = Counter()
        self._base_registry: Counter = Counter()
        #: Frames written to the wire that can never be delivered (the
        #: receiver was SIGKILLed with them in flight) — the settled
        #: remainder the quiescence check accepts.
        self._severed_total = 0
        self._memory_samples: List[float] = []
        self.metrics = _ProcMetrics(self)
        #: Graceful SHUTDOWN requests that failed at teardown (peer
        #: already dead or mid-exit); the SIGKILL/wait fallback below
        #: still reaps the process, this only counts the misses.
        self.shutdown_errors = 0

        #: A temp run dir is ours to remove at close; a caller's is not.
        self._owns_run_dir = run_dir is None
        self.run_dir = (
            tempfile.mkdtemp(prefix="repro-serve-") if run_dir is None else run_dir
        )
        self._closed = False
        try:
            os.makedirs(self.run_dir, exist_ok=True)
            if trace_dir is not None:
                os.makedirs(trace_dir, exist_ok=True)
                # The controller's own stream carries the experiment
                # structure (cell markers, faults, ring changes) that
                # per-replica files cannot know about.
                self.tracer = Tracer(
                    FileTraceSink(os.path.join(trace_dir, "controller.jsonl"))
                )
                epoch = time.monotonic()
                self.tracer.bind(
                    lambda: (time.monotonic() - epoch) * 1000.0,
                    lambda: self.rounds_run,
                )
            for replica in self.replicas:
                self._spawn(replica)
            self._await_portfiles(self.replicas)
            for replica in self.replicas:
                self._connect(replica)
            self._wire_all()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Process lifecycle.
    # ------------------------------------------------------------------

    def _spawn(self, replica: int) -> None:
        port_path = portfile_path(self.run_dir, replica)
        if os.path.exists(port_path):
            os.remove(port_path)
        options = ReplicaOptions(
            replica=replica,
            # The *ring's* members, not every running process: a seat
            # outside the ring (a joiner about to be added, a drained
            # leaver respawned) must boot owning nothing and learn its
            # shards from APPLY_RING like everyone else.
            replicas=tuple(self.ring.replicas),
            run_dir=self.run_dir,
            shards=self.ring.n_shards,
            replication=self.ring.replication,
            algorithm=self.algorithm,
            antientropy=self.antientropy,
            recovery=self.recovery,
            trace_dir=self.trace_dir,
        )
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve-replica",
            "--options",
            options.to_json(),
        ]
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        log = open(os.path.join(self.run_dir, f"r{replica:03d}.log"), "ab")
        try:
            self._procs[replica] = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        finally:
            log.close()

    def _await_portfiles(self, replicas: Sequence[int]) -> None:
        deadline = time.monotonic() + _SPAWN_TIMEOUT_S
        for replica in replicas:
            path = portfile_path(self.run_dir, replica)
            while not os.path.exists(path):
                proc = self._procs[replica]
                if proc.poll() is not None:
                    # The reason is in the replica's log: keep the dir.
                    self._owns_run_dir = False
                    raise ReplicaDied(
                        f"replica {replica} exited with {proc.returncode} before "
                        f"publishing its ports; see {self.run_dir}/r{replica:03d}.log"
                    )
                if time.monotonic() > deadline:
                    raise TransportStalled(
                        f"replica {replica} did not publish ports within "
                        f"{_SPAWN_TIMEOUT_S}s"
                    )
                time.sleep(0.01)
            with open(path, "r", encoding="utf-8") as handle:
                self._ports[replica] = json.load(handle)

    def _connect(self, replica: int) -> None:
        ports = self._ports[replica]
        self._controls[replica] = ControlClient(HOST, ports["client_port"])

    def _control(self, replica: int) -> ControlClient:
        if replica in self.down:
            raise ReplicaDied(f"replica {replica} is down")
        return self._controls[replica]

    @property
    def max_drain_rounds(self) -> int:
        return _MAX_DRAIN_ROUNDS

    @property
    def live(self) -> List[int]:
        return [r for r in self.replicas if r not in self.down]

    def client_addresses(self) -> Dict[int, Tuple[str, int]]:
        """Replica → client-plane address, live replicas only."""
        return {
            r: (HOST, self._ports[r]["client_port"]) for r in self.live
        }

    def replayed_shards(self, replica: int) -> int:
        """Shards the replica's current incarnation restored from WAL."""
        return int(self._ports[replica].get("replayed_shards", 0))

    # ------------------------------------------------------------------
    # Wiring: addresses, down set, partition-blocked sets, round.
    # ------------------------------------------------------------------

    def _blocked_for(self, replica: int) -> List[int]:
        for group in self._groups or ():
            if replica in group:
                return sorted(set(self.replicas) - group)
        return []

    def _wire_all(self, *, reconnect: Sequence[int] = ()) -> None:
        addresses = {
            str(r): [HOST, self._ports[r]["peer_port"]] for r in self.live
        }
        for replica in self.live:
            self._control(replica).request(
                frames.WIRE,
                body={
                    "addresses": addresses,
                    "down": sorted(self.down),
                    "blocked": self._blocked_for(replica),
                    "round": self.rounds_run,
                    "reconnect": [r for r in reconnect if r != replica],
                },
            )

    # ------------------------------------------------------------------
    # Driving rounds.
    # ------------------------------------------------------------------

    def apply_update(self, node: int, update: KVUpdate):
        """Apply one pre-routed typed write at its owner; return the δ."""
        response = self._control(node).request(
            frames.PUT, key=update.key, op=update.op, args=tuple(update.args)
        )
        return decode(response.blob)

    def run_round(
        self, updates: Optional[Callable[[int], Sequence[KVUpdate]]] = None
    ) -> None:
        """One synchronization interval: updates, ticks, settle."""
        if updates is not None:
            for node in self.replicas:
                ops = updates(node)
                if not ops:
                    continue
                if node in self.down:
                    self.updates_skipped += len(ops)
                    continue
                for op in ops:
                    self.apply_update(node, op)
        for node in self.live:
            self._control(node).request(frames.TICK)
        self._settle()
        self.rounds_run += 1
        self._sample()
        if self.tracer is not None:
            self.tracer.emit(ROUND, round=self.rounds_run - 1)

    def _counters(self, replica: int) -> Dict[str, int]:
        body = self._control(replica).request(frames.COUNTERS).body
        counters = {
            "sent": int(body["sent"]),
            "delivered": int(body["delivered"]),
            "blocked": int(body["blocked"]),
        }
        self._last_counters[replica] = counters
        return counters

    def _settle(self) -> None:
        """Poll until the peer plane is quiescent (see module doc)."""
        deadline = time.monotonic() + _SETTLE_TIMEOUT_S
        previous: Optional[Dict[int, Dict[str, int]]] = None
        stable = 0
        while True:
            vector = {r: self._counters(r) for r in self.live}
            sent = self._base_counters["sent"] + sum(
                v["sent"] for v in vector.values()
            )
            delivered = self._base_counters["delivered"] + sum(
                v["delivered"] for v in vector.values()
            )
            if vector == previous:
                stable += 1
            else:
                stable = 0
                previous = vector
            balanced = sent - self._severed_total == delivered
            if stable >= _STABLE_POLLS and balanced:
                return
            if stable >= _SEVERED_POLLS:
                # Stable but unbalanced: the missing frames were in
                # flight to (or counted by) a process that no longer
                # exists.  Account them as severed and move on.
                gap = sent - self._severed_total - delivered
                if gap > 0:
                    self.messages_severed += gap
                self._severed_total += gap
                return
            if time.monotonic() > deadline:
                raise TransportStalled(
                    f"round {self.rounds_run}: no quiescence within "
                    f"{_SETTLE_TIMEOUT_S}s (sent={sent}, "
                    f"delivered={delivered}, severed={self._severed_total})"
                )
            time.sleep(_POLL_INTERVAL_S)

    def _sample(self) -> None:
        """Refresh per-replica STAT snapshots; sample memory."""
        for replica in self.live:
            self._memory_samples.append(
                float(self.stat(replica).get("memory_bytes", 0))
            )

    # ------------------------------------------------------------------
    # Faults.
    # ------------------------------------------------------------------

    def crash(self, node: int, *, lose_state: bool) -> None:
        """SIGKILL the replica process.

        A real process death always loses memory and staged WAL
        records; ``lose_state`` is required on every backend, so a call
        says which crash it means, and here it must be True — a warm
        crash has no process-level analogue.
        The WAL directory survives on disk, which is exactly the
        ``lose_state=True``-with-durable-disk model of the in-process
        harness.
        """
        if not lose_state:
            raise ValueError(
                "ProcessCluster.crash is always lose_state=True: SIGKILL "
                "cannot preserve process memory"
            )
        if node in self.down:
            return
        proc = self._procs.get(node)
        if proc is None:
            raise ReplicaDied(f"replica {node} was never spawned")
        self._fold_dead(node)
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        self._controls.pop(node).close()
        self.down.add(node)
        if self.tracer is not None:
            self.tracer.emit(CRASH, replica=node)
        # Survivors refuse sends to the corpse immediately (blocked,
        # feeding suspicion) instead of timing out on dead sockets.
        self._wire_all()

    def recover(self, node: int) -> None:
        """Respawn over the surviving WAL directory and rejoin."""
        if node not in self.down:
            return
        self._spawn(node)
        self._await_portfiles([node])
        self._connect(node)
        self.down.discard(node)
        if self.tracer is not None:
            self.tracer.emit(
                RECOVER,
                replica=node,
                extra={"replayed_shards": self.replayed_shards(node)},
            )
        # The WIRE carries the current round: the fresh store realigns
        # its scheduler clock and warms the δ-paths its replay covered.
        self._wire_all(reconnect=[node])

    def partition(self, *groups: Iterable[int]) -> None:
        self._groups = partition_groups(groups, self.replicas)
        if self.tracer is not None:
            self.tracer.emit(
                PARTITION,
                extra={"groups": [sorted(group) for group in self._groups]},
            )
        self._wire_all()

    def heal(self) -> None:
        self._groups = None
        if self.tracer is not None:
            self.tracer.emit(HEAL)
        self._wire_all()

    # ------------------------------------------------------------------
    # Driver hooks: membership delivery, tokens, reads (see KVDriver).
    # ------------------------------------------------------------------

    def _seat(self, node: int) -> None:
        if node in self._procs:
            return  # a drained leaver's process is still running: reuse it
        self.replicas = sorted(self.replicas + [node])
        self._spawn(node)
        self._await_portfiles([node])
        self._connect(node)
        self._wire_all(reconnect=[node])

    def _roots(self) -> Dict[int, Dict[str, Dict[str, Optional[str]]]]:
        return {
            replica: self._control(replica).request(frames.ROOTS).body
            for replica in self.live
        }

    def _holders(self, shards: Sequence[int]) -> Dict[int, Dict[int, ShardCopy]]:
        return {
            replica: {
                int(shard): ShardCopy(root not in (None, _EMPTY_ROOT))
                for shard, root in {**body["roots"], **body["retained"]}.items()
            }
            for replica, body in self._roots().items()
        }

    def _apply_ring(self, ring: HashRing, retain: Mapping[int, Set[int]]) -> None:
        # Live processes only: a crashed replica is beyond reach, which
        # leaves its WAL directory unfenced on disk — the same outcome
        # the in-process backend reaches with ``fence=False``.
        for replica in self.live:
            self._control(replica).request(
                frames.APPLY_RING,
                body={
                    "replicas": [int(r) for r in ring.replicas],
                    "retain": sorted(retain.get(replica, ())),
                    "fence": True,
                },
            )

    def _begin_handoff(self, shard: int, source: int, gaining: int) -> None:
        self._control(source).request(
            frames.HANDOFF, body={"shard": shard, "dst": gaining}
        )

    def _shard_tokens(self):
        """One ROOTS sweep; agreement is per-shard root-hash equality."""
        roots = self._roots()
        return lambda owner, shard: roots[owner]["roots"].get(str(shard))

    def _read(self, owner: int, key: Hashable) -> Any:
        blob = self._control(owner).request(frames.GET, key=key).blob
        spec = spec_for(key)
        return spec.read(decode(blob) if blob else spec.bottom())

    def pending_handoffs(self) -> int:
        """Handoffs in flight at live replicas, read fresh: nominations
        land between rounds, after the last round's STAT sample."""
        return sum(int(self.stat(r).get("pending_handoffs", 0)) for r in self.live)

    def hosted_shards(self, replica: int) -> int:
        """How many shards ``replica`` currently hosts."""
        return int(self.stat(replica)["shards"])

    # ------------------------------------------------------------------
    # Aggregated stats (the `_measure_cell` surface).
    # ------------------------------------------------------------------

    def _fold_dead(self, replica: int) -> None:
        """Fold a doomed process's last-known totals into the bases.

        Kills happen at round boundaries, right after ``_settle`` and
        ``_sample`` refreshed the caches, so the fold loses at most the
        (empty) activity since the last quiescent poll.
        """
        self._base_counters.update(self._last_counters.pop(replica, {}))
        stat = self._last_stats.pop(replica, {})
        self._base_stats.update(
            {key: int(stat.get(key, 0)) for key in _FOLDED_STATS}
        )
        self._base_registry.update(stat.get("registry", {}))

    def _sum_stat(self, key: str) -> int:
        return self._base_stats[key] + sum(
            int(self._last_stats.get(replica, {}).get(key, 0))
            for replica in self.live
        )

    def _registry_snapshots(self) -> List[Mapping[str, Any]]:
        return [self._base_registry] + [
            self.stat(replica).get("registry", {}) for replica in self.live
        ]

    def stat(self, replica: int) -> Dict[str, Any]:
        """One live replica's full STAT report (fresh)."""
        stat = self._control(replica).request(frames.STAT).body
        self._last_stats[replica] = stat
        return stat

    # ------------------------------------------------------------------
    # Teardown.
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for replica, control in list(self._controls.items()):
            try:
                control.request(frames.SHUTDOWN)
            except (OSError, FrameError, RuntimeError):
                # Expected at teardown: a SIGKILLed or already-exiting
                # replica refuses the connection (OSError family),
                # closes mid-frame (FrameError), or answers with an
                # error status (RuntimeError).  The wait/kill fallback
                # below reaps it regardless; count the miss so tests
                # and post-mortems can see ungraceful shutdowns.
                self.shutdown_errors += 1
            control.close()
        self._controls.clear()
        deadline = time.monotonic() + 5.0
        for replica, proc in self._procs.items():
            if proc.poll() is not None:
                continue
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self.tracer is not None:
            self.tracer.close()
        if self._owns_run_dir:
            shutil.rmtree(self.run_dir, ignore_errors=True)

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - defensive cleanup
        try:
            self.close()
        except (OSError, RuntimeError) as exc:
            # A destructor must not raise; anything the narrowed
            # handlers inside close() did not absorb (socket teardown,
            # interpreter-shutdown state) is reported the way CPython
            # reports unclosed resources rather than swallowed.
            warnings.warn(
                f"ProcessCluster.__del__: close failed: {exc!r}",
                ResourceWarning,
                source=self,
            )

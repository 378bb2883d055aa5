"""The cluster harness: replicas, runtimes, and a pluggable transport.

Reproduces the paper's experimental harness (Section V-A/B): every node
holds one replica behind a synchronization protocol, applies workload
updates, and synchronizes with its overlay neighbours once per interval
(the paper uses one second).  After the workload's update rounds
finish, the cluster keeps running synchronization-only *drain* rounds
until every replica holds the same state (global convergence), which is
the cross-algorithm comparison point for total transmission.

A :class:`Cluster` is one :class:`~repro.net.runtime.ReplicaRuntime`
per node (each owning one :class:`~repro.sync.protocol.Synchronizer`)
wired to a :class:`~repro.net.transport.Transport`; stepping rounds and
draining to convergence are the shared
:class:`~repro.driver.ClusterDriver` loop, the same one the store
clusters run:

* ``transport=Stepped.SIM`` (default; also spelled ``"sim"``) —
  :class:`~repro.net.sim.SimTransport`, the deterministic
  discrete-event engine: staggered timers, per-link FIFO delivery,
  seeded loss, severed-vs-dropped fault accounting.  Byte-for-byte
  identical to the pre-seam simulator.
* ``transport=Stepped.TCP`` (or ``"tcp"``) — :class:`~repro.net.tcp.
  AsyncTcpTransport`, real localhost TCP sockets where the recorded
  ``payload_bytes`` / ``metadata_bytes`` are measured wire bytes of the
  :func:`repro.codec.encode_message` envelopes.
* ``transport=FreeRun(jitter, seed)`` — :class:`~repro.net.freerun.
  FreeRunTransport`, the same event engine running free: per-replica
  drifting timers (:class:`~repro.net.clock.DriftClock`), no per-round
  quiescence barrier, convergence lag measured instead of assumed.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Union

from repro.driver import ClusterDriver, Deployment, FreeRun, Stepped
from repro.lattice.base import Lattice
from repro.sim.metrics import MetricsCollector
from repro.sim.topology import Topology
from repro.sync.protocol import DeltaMutator, Send, Synchronizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.runtime import ReplicaRuntime
    from repro.net.transport import Transport
    from repro.obs.trace import Tracer


class _SynchronizerView(SequenceABC):
    """A live, indexable view of the runtimes' protocol instances.

    ``cluster.nodes[i]`` sits on hot paths (per-shard convergence
    checks, request routing), so it must stay O(1) per access and track
    replica rebuilds — hence a view over the runtimes rather than a
    list materialized per property read.
    """

    __slots__ = ("_runtimes",)

    def __init__(self, runtimes: Sequence["ReplicaRuntime"]) -> None:
        self._runtimes = runtimes

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [runtime.synchronizer for runtime in self._runtimes[index]]
        return self._runtimes[index].synchronizer

    def __len__(self) -> int:
        return len(self._runtimes)

    def __repr__(self) -> str:
        return repr(list(self))


def _build_transport(deployment, config: "ClusterConfig") -> "Transport":
    """The in-process transport a deployment (or its name) stands for.

    Imported lazily: :mod:`repro.net` and :mod:`repro.sim` reference
    each other (the transports use the event queue and metrics, the
    cluster builds the transports), and deferring the lookup keeps both
    packages importable in either order.
    """
    from repro.net.freerun import FreeRunTransport
    from repro.net.sim import SimTransport
    from repro.net.tcp import AsyncTcpTransport

    metrics = MetricsCollector(config.topology.n)
    if isinstance(deployment, FreeRun):
        return FreeRunTransport(config, metrics, deployment)
    if deployment in (Stepped.SIM, Stepped.SIM.value):
        return SimTransport(config, metrics)
    if deployment in (Stepped.TCP, Stepped.TCP.value):
        return AsyncTcpTransport(config, metrics)
    raise ValueError(
        f"unknown transport {deployment!r} (choose from: Stepped.SIM or "
        "'sim', Stepped.TCP or 'tcp', a FreeRun, or a Transport)"
    )


def _normalize_trace(trace) -> Optional["Tracer"]:
    """Coerce the ``trace=`` argument into a bound-ready tracer.

    Accepts ``None`` (tracing off), an existing :class:`~repro.obs.
    trace.Tracer` (shared across clusters, e.g. one trace file for a
    whole experiment sweep), a :class:`~repro.obs.trace.TraceSink`, or
    a path string for a fresh JSONL file sink.
    """
    if trace is None:
        return None
    from repro.obs.trace import FileTraceSink, Tracer, TraceSink

    if isinstance(trace, Tracer):
        return trace
    if isinstance(trace, TraceSink):
        return Tracer(trace)
    if isinstance(trace, str):
        return Tracer(FileTraceSink(trace))
    raise TypeError(
        f"trace must be None, a Tracer, a TraceSink, or a path string, "
        f"not {type(trace).__name__}"
    )


@dataclass(frozen=True)
class ClusterConfig:
    """Simulation parameters.

    Attributes:
        topology: The overlay graph (Figure 6).
        sync_interval_ms: Period of each node's synchronization timer;
            the paper synchronizes every second.
        latency_ms: One-way link latency; must be well below the
            interval (the paper's cluster had sub-millisecond LAN
            latency against a 1 s interval).
        max_drain_rounds: Safety cap on synchronization-only rounds run
            after the workload ends while waiting for convergence.
    """

    topology: Topology
    sync_interval_ms: float = 1000.0
    latency_ms: float = 25.0
    max_drain_rounds: int = 200
    #: Probability that any message is silently dropped in transit.
    #: The paper's Algorithm 1 assumes 0; the acked variant
    #: (:class:`repro.sync.deltabased.DeltaBasedAcked`) tolerates > 0.
    loss_rate: float = 0.0
    #: Seed for the (deterministic) loss coin flips.
    loss_seed: int = 0

    def __post_init__(self) -> None:
        if self.latency_ms * 2 >= self.sync_interval_ms:
            raise ValueError(
                "round-trip latency must fit inside the sync interval: "
                f"{self.latency_ms}ms vs {self.sync_interval_ms}ms"
            )


class Cluster(ClusterDriver):
    """A set of replicas synchronizing over a topology.

    Args:
        config: Simulation parameters (topology, interval, loss).
        factory: Synchronizer factory, called with keyword arguments
            (``replica=``, ``neighbors=``, ``bottom=``, ``n_nodes=``)
            for each node.
        bottom: The bottom element every replica starts from.
        transport: A :data:`~repro.driver.Deployment` other than
            ``Stepped.PROC`` (default ``Stepped.SIM``; ``"sim"`` and
            ``"tcp"`` name the stepped ones), or an already constructed
            :class:`~repro.net.transport.Transport`.
        trace: Structured tracing: ``None`` (off, the default), a
            :class:`~repro.obs.trace.Tracer`, a
            :class:`~repro.obs.trace.TraceSink`, or a path string (a
            :class:`~repro.obs.trace.FileTraceSink` is opened there).
            The tracer's clock is bound to the transport, and every
            layer that can see the tracer emits through it.
    """

    def __init__(
        self,
        config: ClusterConfig,
        factory: Callable[..., Synchronizer],
        bottom: Lattice,
        transport: Union[Deployment, str, Transport] = Stepped.SIM,
        *,
        trace: Union[None, "Tracer", str, object] = None,
    ) -> None:
        from repro.net.runtime import ReplicaRuntime

        self.config = config
        self.topology = config.topology
        self._factory = factory
        self._bottom = bottom
        self.tracer = _normalize_trace(trace)
        if isinstance(transport, (str, Stepped, FreeRun)):
            transport = _build_transport(transport, config)
        self.transport = transport
        #: Shared collector: the transport records messages and memory
        #: samples, the runtimes record processing costs.
        self.metrics = transport.metrics
        if self.tracer is not None:
            # Bind the trace clock to the transport so every event
            # carries the same time/round axes the collector uses.
            self.tracer.bind(
                lambda: self.transport.now, lambda: self.transport.rounds_run
            )
            transport.tracer = self.tracer
        self.runtimes: List[ReplicaRuntime] = [
            ReplicaRuntime(self._build_synchronizer(node), self.metrics)
            for node in range(config.topology.n)
        ]
        self._nodes_view = _SynchronizerView(self.runtimes)
        self.transport.bind(self.runtimes)

    def _build_synchronizer(self, node: int) -> Synchronizer:
        """Construct one node's protocol instance, by keyword.

        Keyword construction is the :data:`~repro.sync.protocol.
        SynchronizerFactory` contract: runtime-built replicas cannot
        silently transpose positional arguments.
        """
        return self._factory(
            replica=node,
            neighbors=self.topology.neighbors(node),
            bottom=self._bottom,
            n_nodes=self.topology.n,
        )

    # ------------------------------------------------------------------
    # Legacy surface: the protocol instances and transport state.
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Sequence[Synchronizer]:
        """The per-node protocol instances (index == replica id).

        A live O(1)-per-access view: indexing reads through to the
        runtime, so a replica rebuilt by ``crash(lose_state=True)`` is
        visible immediately.
        """
        return self._nodes_view

    @property
    def queue(self):
        """The simulator's event queue (sim transport only)."""
        return self.transport.queue

    @property
    def down(self) -> set:
        """Nodes currently crashed: they neither tick nor receive."""
        return self.transport.down

    @property
    def messages_dropped(self) -> int:
        """Transmitted messages eaten by random network loss."""
        return self.transport.messages_dropped

    @property
    def messages_severed(self) -> int:
        """In-flight messages killed by a crash or severed link."""
        return self.transport.messages_severed

    @property
    def messages_blocked(self) -> int:
        """Sends refused before transmission (down peer / severed link)."""
        return self.transport.messages_blocked

    @property
    def updates_skipped(self) -> int:
        """Workload updates discarded because their node was down."""
        return self.transport.updates_skipped

    @property
    def rounds_run(self) -> int:
        return self.transport.rounds_run

    @property
    def max_drain_rounds(self) -> int:
        return self.config.max_drain_rounds

    @property
    def now(self) -> float:
        return self.transport.now

    # ------------------------------------------------------------------
    # Driving the cluster.
    # ------------------------------------------------------------------

    def apply_update(self, node: int, delta_mutator: DeltaMutator) -> Lattice:
        """Run one workload update on ``node``, with cost accounting."""
        return self.runtimes[node].local_update(delta_mutator)

    def run_round(
        self,
        updates: Optional[Callable[[int], Sequence[DeltaMutator]]] = None,
    ) -> None:
        """Run one full round: updates, sync tick, delivery, sampling.

        ``updates`` maps a node index to the δ-mutators it applies this
        round (``None`` for a synchronization-only drain round).
        """
        self.transport.run_round(updates)

    def converged(self) -> bool:
        """True when every live replica holds the same lattice state."""
        live = [
            runtime.synchronizer
            for index, runtime in enumerate(self.runtimes)
            if index not in self.down
        ]
        if len(live) < 2:
            return True
        first = live[0].state
        return all(node.state == first for node in live[1:])

    def close(self) -> None:
        """Release transport resources (sockets, loops); idempotent."""
        self.transport.close()

    # ------------------------------------------------------------------
    # Fault injection: crashes and network partitions.
    # ------------------------------------------------------------------

    def crash(self, node: int, lose_state: bool = False) -> None:
        """Take ``node`` down: it stops ticking, sending, and receiving.

        With ``lose_state`` the replica loses its in-memory state and is
        rebuilt fresh; what the rebuilt replica comes back *holding* is
        the recovery policy's call (:meth:`_restore_for`) — the base
        cluster has no durable layer, so it restarts from bottom and
        leans entirely on protocol-level repair.  Without ``lose_state``
        it resumes from the state it crashed with (process restart).
        """
        self.transport.crash(node)
        if lose_state:
            self.runtimes[node].replace(
                self._build_synchronizer(node), restore=self._restore_for(node)
            )

    def _restore_for(self, node: int):
        """The recovery policy of a lose-state rebuild.

        Returns a callable applied to the freshly built synchronizer
        before it goes live, or ``None`` for a bottom restart.
        Subclasses with a durability layer override this —
        :class:`~repro.kv.cluster.KVCluster` replays the replica's
        per-shard write-ahead log here.
        """
        return None

    def recover(self, node: int) -> None:
        """Bring a crashed node back into the cluster.

        Down nodes do not tick, so whether the replica kept its state
        or was rebuilt from bottom, its internal clocks lag the cluster
        by the whole downtime.  Realigning here keeps periodic
        machinery (anti-entropy repair phases, coldness thresholds)
        synchronized with the replicas that kept running.
        """
        self.transport.recover(node)
        self.runtimes[node].restore_clock(self.rounds_run)

    def partition(self, *groups: Iterable[int]) -> None:
        """Sever every link between nodes of different ``groups``.

        Nodes not named in any group form one implicit extra group, so
        ``partition([0, 1])`` isolates nodes 0-1 from everyone else.
        """
        self.transport.partition(*groups)

    def heal(self) -> None:
        """Restore full connectivity (crashed nodes stay down)."""
        self.transport.heal()

    @property
    def partitioned(self) -> bool:
        return self.transport.partitioned

    def link_up(self, src: int, dst: int) -> bool:
        """True when a message can currently travel ``src → dst``."""
        return self.transport.link_up(src, dst)

    def _dispatch(self, src: int, sends: Sequence[Send]) -> None:
        """Hand outbound messages to the transport (testing hook)."""
        self.transport.send(src, sends)

"""The transport interface between replica runtimes and a network.

A :class:`Transport` owns everything below the synchronizer protocol:
how outbound :class:`~repro.sync.protocol.Send`\\ s reach their
destination, when the periodic synchronization timers fire, what the
clock reads, and which failures the network injects.  The contract is
deliberately small so the same :class:`~repro.net.runtime.
ReplicaRuntime` — and therefore every synchronizer and the whole kv
store — runs unchanged on the discrete-event simulator, on real
asyncio TCP sockets, and in a replica process of its own:

* **send** — :meth:`Transport.send` ships a batch of outbound messages
  produced by one replica; the transport validates addressing against
  the overlay topology, applies loss and fault rules, and accounts
  every message that actually crosses the wire — and every send the
  network loses or refuses — in the shared
  :class:`~repro.sim.metrics.MetricsCollector`, the one place a wire
  event is recorded and traced.
* **deliver callback** — arriving messages re-enter protocol code only
  through :meth:`ReplicaRuntime.deliver`, never by the transport
  touching a synchronizer directly.
* **clock / timers** — :attr:`Transport.now` is the transport's clock
  in milliseconds and :meth:`Transport.run_round` advances one
  synchronization interval: workload updates, one timer tick per live
  replica, delivery until the round settles, then a memory sample.
* **peer addressing** — a transport carries its *local* runtimes,
  keyed by replica id: every node ``0..n-1`` of the configured
  :class:`~repro.sim.topology.Topology` for the in-process transports,
  the one replica of a replica process on its
  :class:`~repro.serve.replica.PeerPlane`.  A send to a replica outside
  the sender's neighbour set is a hard error on every transport.
* **loss / fault hooks** — :meth:`crash`, :meth:`recover`,
  :meth:`partition`, and :meth:`heal` manipulate shared fault state (a
  replica process receives the same down set and partition groups by
  WIRE from its controller); :meth:`link_up` answers whether a message
  can currently travel.  Loss, fault kills and refused sends are
  counted apart in the collector's ``losses`` (under their trace event
  types), and ``updates_skipped`` counts lost client operations.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

from repro.driver import partition_groups
from repro.obs.trace import (
    CRASH,
    DELIVER,
    HEAL,
    MESSAGE_DROPPED,
    PARTITION,
    RECOVER,
    SEND_BLOCKED,
)
from repro.sim.metrics import MemorySample, MessageRecord, MetricsCollector
from repro.sync.protocol import DeltaMutator, Send

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.net.runtime import ReplicaRuntime
    from repro.sim.network import ClusterConfig


class TransportStalled(RuntimeError):
    """A transport stopped making delivery progress (deadlock guard)."""


class Transport(ABC):
    """Delivery substrate shared by a cluster of replica runtimes.

    Args:
        config: The cluster configuration (topology, sync interval,
            loss model).
        metrics: The shared collector that every transmitted, lost or
            refused message and every memory sample is recorded into;
            its ``tracer`` is the transport's too.
    """

    def __init__(self, config: "ClusterConfig", metrics: MetricsCollector) -> None:
        self.config = config
        self.topology = config.topology
        self.metrics = metrics
        #: The replica runtimes hosted here, keyed by replica id.
        self.runtimes: Dict[int, "ReplicaRuntime"] = {}
        #: Workload updates discarded because their node was down.
        self.updates_skipped = 0
        #: Nodes currently crashed: they neither tick nor receive.
        self.down: set = set()
        #: Active partition as disjoint node groups (``None`` = healthy).
        self._groups: Optional[Tuple[FrozenSet[int], ...]] = None
        #: Per-edge loss streams, created lazily by :meth:`_edge_rng`.
        #: The k-th flip on edge ``(src, dst)`` is a pure function of
        #: ``(loss_seed, src, dst, k)`` — never of the order the
        #: transport happens to *interleave* edges — so the loss
        #: schedule is a function of the traffic itself: repeated runs,
        #: and the simulator vs the TCP transport, drop the same frames.
        self._edge_rngs: dict = {}

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    def bind(self, runtimes: Sequence["ReplicaRuntime"]) -> None:
        """Attach the replica runtimes this transport carries traffic for."""
        if len(runtimes) != self.topology.n:
            raise ValueError(
                f"transport for a {self.topology.n}-node topology got "
                f"{len(runtimes)} runtimes"
            )
        self.runtimes = {runtime.replica: runtime for runtime in runtimes}
        for runtime in runtimes:
            runtime.attach(self)

    # ------------------------------------------------------------------
    # The data plane.
    # ------------------------------------------------------------------

    @abstractmethod
    def send(self, src: int, sends: Sequence[Send]) -> None:
        """Ship ``src``'s outbound messages (validated, accounted)."""

    @property
    @abstractmethod
    def now(self) -> float:
        """The transport clock in milliseconds."""

    @property
    @abstractmethod
    def rounds_run(self) -> int:
        """Synchronization rounds completed so far."""

    @abstractmethod
    def run_round(
        self,
        updates: Optional[Callable[[int], Sequence[DeltaMutator]]] = None,
    ) -> None:
        """Advance one synchronization interval: updates, ticks, delivery.

        ``updates`` maps a node index to the δ-mutators it applies this
        round (``None`` for a synchronization-only drain round).  The
        round ends only after every message sent during it — including
        protocol replies — has been delivered or accounted as lost, so
        the caller may inspect replica state between rounds.
        """

    def close(self) -> None:
        """Release transport resources (sockets, loops); idempotent."""

    # ------------------------------------------------------------------
    # Fault injection: crashes and network partitions.
    # ------------------------------------------------------------------

    def crash(self, node: int) -> None:
        """Take ``node`` down: it stops ticking, sending, and receiving."""
        if not 0 <= node < self.topology.n:
            raise ValueError(f"no such node {node}")
        self.down.add(node)
        if self.metrics.tracer is not None:
            self.metrics.tracer.emit(CRASH, replica=node)

    def recover(self, node: int) -> None:
        """Bring a crashed node back into the cluster."""
        self.down.discard(node)
        if self.metrics.tracer is not None:
            self.metrics.tracer.emit(RECOVER, replica=node)

    def partition(self, *groups: Iterable[int]) -> None:
        """Sever every link between nodes of different ``groups``.

        Nodes not named in any group form one implicit extra group, so
        ``partition([0, 1])`` isolates nodes 0-1 from everyone else.
        """
        self._groups = partition_groups(groups, range(self.topology.n))
        if self.metrics.tracer is not None:
            self.metrics.tracer.emit(
                PARTITION,
                extra={"groups": [sorted(group) for group in self._groups]},
            )

    def heal(self) -> None:
        """Restore full connectivity (crashed nodes stay down)."""
        self._groups = None
        if self.metrics.tracer is not None:
            self.metrics.tracer.emit(HEAL)

    @property
    def partitioned(self) -> bool:
        return self._groups is not None

    def link_up(self, src: int, dst: int) -> bool:
        """True when a message can currently travel ``src → dst``."""
        if src in self.down or dst in self.down:
            return False
        if self._groups is None:
            return True
        for group in self._groups:
            if src in group:
                return dst in group
        return True

    # ------------------------------------------------------------------
    # Shared helpers for implementations.
    # ------------------------------------------------------------------

    def _check_addressing(self, src: int, send: Send) -> None:
        """A synchronizer addressing a non-neighbour is a hard error."""
        if send.dst not in self.runtimes[src].synchronizer.neighbors:
            raise ValueError(
                f"node {src} attempted to message non-neighbour {send.dst}"
            )

    def _admit(self, src: int, send: Send) -> bool:
        """The shared admission step of every ``send`` implementation.

        Validates addressing and refuses sends over a dead link —
        counting the refusal and informing the sender's runtime so
        suspicion-based repair scheduling sees it.  Returns ``True``
        when the message may be transmitted.  Both transports must run
        the identical sequence (admit → account+flip → deliver) or the
        documented sim/TCP equivalence drifts; that is why it lives
        here and not in the subclasses.
        """
        self._check_addressing(src, send)
        if not self.link_up(src, send.dst):
            # Connection refused: nothing crossed the wire, so the
            # send is not recorded as transmission.  The sender does
            # learn the peer is unreachable — the signal stores feed
            # into divergence-driven repair scheduling.
            self.runtimes[src].note_send_blocked(send.dst)
            self.metrics.record_loss(SEND_BLOCKED, src, send.dst, send.message.kind)
            return False
        return True

    def _transmit(
        self, src: int, send: Send, payload_bytes: int, metadata_bytes: int
    ) -> bool:
        """Account one transmitted message and apply the loss model.

        ``payload_bytes``/``metadata_bytes`` are whatever the transport
        measures (size-model estimates on the simulator, wire bytes on
        TCP); units always come from the message.  The record is made
        before the loss coin flip, so the collector (and its ``send``
        trace line) counts a lost message too.  Returns ``False`` when
        the network ate the message — it was transmitted (and counted)
        but must not be delivered.
        """
        self.metrics.record_message(
            MessageRecord(
                time=self.now,
                src=src,
                dst=send.dst,
                kind=send.message.kind,
                payload_units=send.message.payload_units,
                payload_bytes=payload_bytes,
                metadata_bytes=metadata_bytes,
                metadata_units=send.message.metadata_units,
            )
        )
        if (
            self.config.loss_rate > 0.0
            and self._edge_rng(src, send.dst).random() < self.config.loss_rate
        ):
            self.metrics.record_loss(MESSAGE_DROPPED, src, send.dst, send.message.kind)
            return False
        return True

    def _edge_rng(self, src: int, dst: int) -> random.Random:
        """The edge's private loss stream, seeded from (seed, src, dst).

        A single shared stream would assign flips in *consumption*
        order — on the TCP transport that is event-loop callback order,
        which made repeated runs (and sim-vs-TCP comparisons) drop
        different frames.  One stream per directed edge removes the
        ordering dependency entirely; the stride just folds the three
        seed components into one integer without collisions for any
        plausible node count.
        """
        rng = self._edge_rngs.get((src, dst))
        if rng is None:
            stride = 1_000_003
            rng = random.Random(
                (self.config.loss_seed * stride + src) * stride + dst
            )
            self._edge_rngs[(src, dst)] = rng
        return rng

    def _trace_deliver(self, src: int, dst: int, kind: str) -> None:
        """Emit the delivery event both transports share.

        Byte accounting lives on the ``send`` event (the transmission
        record); delivery events only attribute *arrival* — who got
        what kind, when — so the trace can show one-way latency and
        undelivered tails without double-counting bytes.
        """
        if self.metrics.tracer is not None:
            self.metrics.tracer.emit(DELIVER, replica=dst, peer=src, kind=kind)

    def sample_memory(self, at: float) -> None:
        """Record one resident-footprint sample per live replica."""
        for index, runtime in self.runtimes.items():
            if index in self.down:
                continue
            node = runtime.synchronizer
            self.metrics.record_memory(
                MemorySample(
                    time=at,
                    node=index,
                    state_units=node.state_units(),
                    buffer_units=node.buffer_units(),
                    state_bytes=node.state_bytes(),
                    buffer_bytes=node.buffer_bytes(),
                    metadata_bytes=node.metadata_bytes(),
                    metadata_units=node.metadata_units(),
                )
            )

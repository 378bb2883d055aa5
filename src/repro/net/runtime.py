"""One replica's event loop over an abstract transport.

:class:`ReplicaRuntime` is the piece that used to be implicit in the
simulated cluster's event actions: it owns exactly one
:class:`~repro.sync.protocol.Synchronizer` and translates transport
events into the three protocol entry points, recording the processing
costs the paper's Figures 1 and 12 measure.  The runtime is
transport-agnostic by construction — it only ever calls
:meth:`~repro.net.transport.Transport.send` — which is what lets the
identical protocol objects run on the deterministic simulator and on
real asyncio TCP sockets.

The runtime also fronts the two optional fault-signal hooks a
synchronizer may expose (``note_send_blocked`` from refused sends and
``restore_clock`` after a rebuild), so transports never need
``getattr`` probes into protocol objects.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING, Optional

from repro.lattice.base import Lattice
from repro.sim.metrics import MetricsCollector
from repro.sync.protocol import DeltaMutator, Message, Synchronizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.clock import TickClock
    from repro.net.transport import Transport
    from repro.obs.metrics import MetricsRegistry


class ReplicaRuntime:
    """Drives one synchronizer's event handlers over a transport.

    Args:
        synchronizer: The protocol instance this runtime owns.
        collector: Shared collector for processing-cost records
            (``None`` disables processing accounting).
    """

    def __init__(
        self,
        synchronizer: Synchronizer,
        collector: Optional[MetricsCollector] = None,
    ) -> None:
        self.synchronizer = synchronizer
        self.collector = collector
        self.transport: Optional["Transport"] = None
        #: This replica's step policy (:class:`~repro.net.clock.
        #: TickClock`), attached by the transport at bind time.  The
        #: transport reads every timer target through this seam — when
        #: the replica's workload updates land, when its periodic
        #: synchronization timer fires — so the same event engine can
        #: run barrier-stepped rounds or free-running drifting timers.
        self.clock: Optional["TickClock"] = None

    @property
    def replica(self) -> int:
        """This runtime's replica index (the synchronizer's identity)."""
        return self.synchronizer.replica

    @property
    def metrics(self) -> Optional["MetricsRegistry"]:
        """This replica's metrics registry, when its protocol keeps one.

        The sharded kv store keeps its scheduler and WAL counters in a
        per-replica :class:`~repro.obs.metrics.MetricsRegistry`; plain
        synchronizers have none.  This is the
        single observability surface per replica — the cluster-level
        ``scheduler_stats()``/``wal_stats()`` adapters read through it.
        """
        return getattr(self.synchronizer, "registry", None)

    def attach(self, transport: "Transport") -> None:
        """Bind the transport outbound sends go through."""
        self.transport = transport

    # ------------------------------------------------------------------
    # The three protocol entry points, with cost accounting.
    # ------------------------------------------------------------------

    def local_update(self, delta_mutator: DeltaMutator) -> Lattice:
        """Run one workload update on the replica; return its delta."""
        started = _time.perf_counter()
        delta = self.synchronizer.local_update(delta_mutator)
        elapsed = _time.perf_counter() - started
        self._record(delta.size_units(), elapsed)
        return delta

    def tick(self) -> None:
        """The periodic synchronization timer fired: push to neighbours."""
        started = _time.perf_counter()
        sends = self.synchronizer.sync_messages()
        elapsed = _time.perf_counter() - started
        produced = sum(send.message.payload_units for send in sends)
        self._record(produced, elapsed)
        self._send(sends)

    def deliver(self, src: int, message: Message) -> None:
        """A message arrived from ``src``; ship any immediate replies."""
        started = _time.perf_counter()
        replies = self.synchronizer.handle_message(src, message)
        elapsed = _time.perf_counter() - started
        self._record(message.payload_units, elapsed)
        self._send(replies)

    # ------------------------------------------------------------------
    # Fault signals and lifecycle.
    # ------------------------------------------------------------------

    def note_send_blocked(self, dst: int) -> None:
        """The transport refused a send to ``dst``; inform the protocol."""
        hook = getattr(self.synchronizer, "note_send_blocked", None)
        if hook is not None:
            hook(dst)

    def restore_clock(self, ticks: int) -> None:
        """Re-align a rebuilt replica's periodic machinery to the cluster."""
        hook = getattr(self.synchronizer, "restore_clock", None)
        if hook is not None:
            hook(ticks)

    def apply_ring(self, ring, *, retain=frozenset(), fence: bool = True) -> None:
        """Swap the synchronizer's placement ring (live rebalancing).

        Fronts the optional ``apply_ring`` hook the sharded store
        exposes, keeping membership changes on the same no-``getattr``
        seam as the fault signals.  A protocol without the hook cannot
        rebalance — that is a caller error, not a silent no-op.
        ``fence=False`` preserves the durable logs of shards this
        (crashed) replica loses instead of truncating them.
        """
        hook = getattr(self.synchronizer, "apply_ring", None)
        if hook is None:
            raise TypeError(
                f"{type(self.synchronizer).__name__} does not support ring "
                "membership changes (no apply_ring hook)"
            )
        hook(ring, retain=retain, fence=fence)

    def replace(self, synchronizer: Synchronizer, restore=None) -> None:
        """Swap in a fresh protocol instance (crash with state loss).

        ``restore`` is the recovery policy's hook: a callable applied to
        the fresh synchronizer before it goes live — e.g. replaying a
        write-ahead log into it — so a rebuilt replica can come back
        holding its durable state instead of bottom.  Anything the
        restore step cannot cover is left to the protocol-level repair
        machinery, exactly as for a restore-less rebuild.
        """
        if synchronizer.replica != self.replica:
            raise ValueError(
                f"replacement replica {synchronizer.replica} does not match "
                f"runtime replica {self.replica}"
            )
        if restore is not None:
            restore(synchronizer)
        self.synchronizer = synchronizer

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _send(self, sends) -> None:
        if not sends:
            return
        if self.transport is None:
            raise RuntimeError(
                f"runtime {self.replica} produced messages before a "
                "transport was attached"
            )
        self.transport.send(self.replica, sends)

    def _record(self, units: int, seconds: float) -> None:
        if self.collector is not None:
            self.collector.record_processing(self.replica, units, seconds)

    def __repr__(self) -> str:
        return (
            f"ReplicaRuntime(replica={self.replica}, "
            f"protocol={type(self.synchronizer).__name__})"
        )

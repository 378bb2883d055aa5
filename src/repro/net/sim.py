"""The discrete-event simulator as a transport.

This is the engine that used to live inside ``repro.sim.network.
Cluster``, carved out behind the :class:`~repro.net.transport.
Transport` interface with its event ordering preserved exactly: node
timers are staggered by a microscopic offset so "simultaneous" ticks
have a stable order, message delivery preserves per-link FIFO, and the
loss coin flips draw from seeded per-edge streams (a pure function of
the traffic, shared with the TCP transport so both drop the same
frames).  Every loss-free experiment that ran on the pre-seam
simulator produces byte-identical metrics on this transport — that
equivalence is what licenses comparing TCP-measured wire bytes against
the simulator's size-model accounting.

Within a round (one synchronization interval, one second in the
paper): workload updates land at the round base, every live node's
sync timer fires at the half-interval mark, and link latency is small
relative to the interval, so a message sent in round *k* — and any
replies it triggers, such as Scuttlebutt's delta responses — is
processed well before round *k+1* begins, exactly as in the paper's
deployment.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.net.clock import LATENCY_MS, RoundStepClock, TickClock
from repro.net.transport import Transport
from repro.obs.trace import MESSAGE_SEVERED, ROUND
from repro.sim.events import EventQueue
from repro.sim.metrics import MetricsCollector
from repro.sync.protocol import DeltaMutator, Send


class SimTransport(Transport):
    """Deterministic event-driven delivery with fault injection."""

    def __init__(self, config, metrics: MetricsCollector) -> None:
        super().__init__(config, metrics)
        self.queue = EventQueue()
        self._round = 0
        #: The step policy of every replica: when its workload updates
        #: land and when its synchronization timer fires.  The base
        #: transport drives barrier-stepped rounds; a subclass swaps in
        #: another clock to change the execution model without touching
        #: the event engine.
        self.clock: TickClock = RoundStepClock()

    # ------------------------------------------------------------------
    # Driving the simulation.
    # ------------------------------------------------------------------

    def run_round(
        self,
        updates: Optional[Callable[[int], Sequence[DeltaMutator]]] = None,
    ) -> None:
        """Run one full round: updates, sync tick, delivery, sampling."""
        if updates is not None:
            for node in range(self.topology.n):
                mutators = updates(node)
                if not mutators:
                    continue
                self.queue.schedule(
                    self.clock.update_at(self._round, node),
                    self._update_action,
                    payload=(node, tuple(mutators)),
                )

        for node in range(self.topology.n):
            self.queue.schedule(
                self.clock.sync_at(self._round, node),
                self._sync_action,
                payload=node,
            )

        end_of_round = self.clock.interval_end(self._round)
        self.queue.run(until=end_of_round)
        self.sample_memory(end_of_round)
        self._round += 1
        if self.metrics.tracer is not None:
            self.metrics.tracer.emit(ROUND, round=self._round - 1, time=end_of_round)

    @property
    def rounds_run(self) -> int:
        return self._round

    @property
    def now(self) -> float:
        return self.queue.now

    # ------------------------------------------------------------------
    # Event actions.
    # ------------------------------------------------------------------

    def _update_action(self, event) -> None:
        node, mutators = event.payload
        if node in self.down:
            # The client's replica is gone; its scheduled operations
            # are lost, and visibly so.
            self.updates_skipped += len(mutators)
            return
        for mutator in mutators:
            self.runtimes[node].local_update(mutator)

    def _sync_action(self, event) -> None:
        node: int = event.payload
        if node in self.down:
            return
        self.runtimes[node].tick()

    def _deliver_action(self, event) -> None:
        src, dst, message = event.payload
        if not self.link_up(src, dst):
            # The destination crashed — or the link was severed — while
            # the message was in flight.
            self.metrics.record_loss(MESSAGE_SEVERED, src, dst, message.kind)
            return
        self._trace_deliver(src, dst, message.kind)
        self.runtimes[dst].deliver(src, message)

    # ------------------------------------------------------------------
    # The data plane.
    # ------------------------------------------------------------------

    def send(self, src: int, sends: Sequence[Send]) -> None:
        """Record and schedule delivery of outbound messages.

        Accounting uses the message's *modelled* sizes — the size-model
        estimates the paper's figures are computed from.
        """
        for send in sends:
            if not self._admit(src, send):
                continue
            if not self._transmit(
                src, send, send.message.payload_bytes, send.message.metadata_bytes
            ):
                continue
            self.queue.schedule_in(
                LATENCY_MS,
                self._deliver_action,
                payload=(src, send.dst, send.message),
            )

"""Free-running execution: drifting per-replica timers, no barrier.

:class:`FreeRunTransport` reuses the deterministic event engine of
:class:`~repro.net.sim.SimTransport` but drops the round structure.
Each replica owns a self-rescheduling synchronization timer driven by a
:class:`~repro.net.clock.DriftClock` — a private phase offset and a
drifting period modelling real oscillator skew — so ticks never align
across the cluster and nothing ever waits for the network to quiesce:
a message sent near an interval boundary is simply delivered in the
next interval, exactly as on a real deployment where "rounds" exist
only as the observer's reporting grid.

:meth:`run_round` therefore means something weaker here than on the
barrier-stepped transport: it advances the modelled timeline by one
nominal synchronization interval (the paper's per-interval model, one
second) and returns *without* settling.  Convergence between intervals
is not guaranteed — that gap is the measurement: drive the cluster
with tracing on and the existing
:class:`~repro.obs.lag.ConvergenceProbe` reports how many intervals
each shard's owner group stayed divergent, i.e. the price of dropping
the barrier.

Crashed replicas keep their (silenced) timers: the timer survives the
crash and the replica resumes its own timeline on recovery, so a
recovered node does not snap back into alignment with anyone else.

Determinism is fully preserved — the timeline is a pure function of
the :class:`~repro.driver.FreeRun` value's ``(seed, jitter)``, the
fixed interval (:data:`~repro.net.clock.SYNC_INTERVAL_MS`) and the
workload — so
free-running experiments replay exactly, like everything else in the
harness.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.driver import FreeRun
from repro.net.clock import DriftClock
from repro.net.sim import SimTransport
from repro.obs.trace import ROUND
from repro.sim.metrics import MetricsCollector
from repro.sync.protocol import DeltaMutator


class FreeRunTransport(SimTransport):
    """Event-driven delivery under free-running drifting timers."""

    def __init__(self, config, metrics: MetricsCollector, drift: FreeRun) -> None:
        super().__init__(config, metrics)
        self.clock = DriftClock(jitter=drift.jitter, seed=drift.seed)
        #: Ticks fired so far per node (the next tick's index).
        self._ticks: Dict[int, int] = {}
        self._armed = False

    # ------------------------------------------------------------------
    # Driving: one nominal interval per call, no settling.
    # ------------------------------------------------------------------

    def run_round(
        self,
        updates: Optional[Callable[[int], Sequence[DeltaMutator]]] = None,
    ) -> None:
        """Advance one nominal interval of the free-running timeline.

        Workload updates of this interval land at each node's own phase
        point; synchronization is driven entirely by the replicas'
        standing timers.  The queue runs up to the interval horizon and
        no further — in-flight deliveries and late ticks simply carry
        over, so callers must not assume quiescence on return.
        """
        if not self._armed:
            # Arm every replica's perpetual timer once; from here each
            # tick reschedules its own successor.
            for node in range(self.topology.n):
                self._arm(node)
            self._armed = True

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

        horizon = self.clock.interval_end(self._round)
        self.queue.run(until=horizon)
        self.sample_memory(horizon)
        self._round += 1
        if self.metrics.tracer is not None:
            self.metrics.tracer.emit(ROUND, round=self._round - 1, time=horizon)

    # ------------------------------------------------------------------
    # The perpetual per-replica timers.
    # ------------------------------------------------------------------

    def _arm(self, node: int) -> None:
        tick = self._ticks.get(node, 0)
        self.queue.schedule(
            self.clock.sync_at(tick, node),
            self._tick_action,
            payload=node,
        )

    def _tick_action(self, event) -> None:
        node: int = event.payload
        # Re-arm before firing: the timer is the replica's heartbeat
        # and must survive whatever the tick itself does (including a
        # crash injected mid-run — a down node's timer fires silently).
        self._ticks[node] = self._ticks.get(node, 0) + 1
        self._arm(node)
        if node in self.down:
            return
        self.runtimes[node].tick()

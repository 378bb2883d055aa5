"""Step policies: when each replica's periodic machinery fires.

The transports used to hard-code their timer arithmetic; this module
carves that decision out as a small seam so the *same* event engine can
run two execution models:

* :class:`RoundStepClock` — the paper's barrier-stepped rounds.  Every
  node's synchronization timer fires at the half-interval mark, offset
  by a microscopic per-node stagger so "simultaneous" ticks have a
  stable order, and each round runs to quiescence before the next
  begins.  The arithmetic here is copied *expression for expression*
  from the pre-seam :meth:`~repro.net.sim.SimTransport.run_round` —
  same operations, same association order — so the floating-point
  timestamps, and therefore every byte record downstream of them, are
  bit-identical to the pre-seam engine.
* :class:`DriftClock` — free-running per-replica timers.  Each replica
  draws a private phase offset and a drifting period (a seeded
  perturbation of the nominal interval, modelling real oscillator
  skew), so ticks never align across the cluster and there is no
  barrier to settle to.  This is the paper's actual deployment shape:
  nodes synchronize "every second" by their own clock, not in lockstep.

A clock is attached to every :class:`~repro.net.runtime.ReplicaRuntime`
at bind time; transports read timer targets exclusively through that
per-runtime seam, never from their own config arithmetic.

The timing itself is fixed, as in the paper's one deployment: the sync
interval (:data:`SYNC_INTERVAL_MS`), the simulated link latency
(:data:`LATENCY_MS`) and the per-node stagger (:data:`STAGGER_MS`) are
constants of this module, not settings of a cluster.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Tuple

#: Period of every node's synchronization timer in milliseconds: the
#: paper's deployment synchronizes once per second (Section V-A).
SYNC_INTERVAL_MS = 1000.0

#: One-way link latency of the simulated network in milliseconds.  A
#: round trip fits well inside one interval, as on the paper's cluster
#: (sub-millisecond LAN latency against a 1 s interval), so a barrier
#: round settles every exchange it starts.
LATENCY_MS = 25.0

#: Per-node timer stagger in milliseconds.  Microscopic relative to the
#: interval, it exists only to give "simultaneous" events a stable total
#: order in the event queue.
STAGGER_MS = 1e-3


class TickClock(ABC):
    """When a replica's workload and synchronization timers fire.

    All times are absolute simulation-timeline milliseconds.  ``round``
    (equivalently ``tick``) indexes synchronization intervals from 0.
    """

    #: Whether :meth:`run_round` on this clock's transport settles each
    #: interval to quiescence (the barrier-stepped model) or lets
    #: events cross interval boundaries (free-running).
    barrier: bool = True

    @abstractmethod
    def update_at(self, round: int, node: int) -> float:
        """When ``node``'s workload updates of interval ``round`` land."""

    @abstractmethod
    def sync_at(self, tick: int, node: int) -> float:
        """When ``node``'s ``tick``-th synchronization timer fires."""

    @abstractmethod
    def interval_end(self, round: int) -> float:
        """The driving horizon of interval ``round`` (exclusive of the
        next interval's own events)."""


class RoundStepClock(TickClock):
    """Barrier-stepped rounds: the pre-seam simulator's exact timeline.

    Updates land at the round base, every node's sync timer fires at
    the half-interval mark, both staggered per node.  Do not "simplify"
    the arithmetic below: the expressions reproduce the pre-seam
    engine's operation order so the float timestamps are bit-identical,
    which is what the byte-record fingerprint check pins.
    """

    barrier = True

    def update_at(self, round: int, node: int) -> float:
        return round * SYNC_INTERVAL_MS + node * STAGGER_MS

    def sync_at(self, tick: int, node: int) -> float:
        return tick * SYNC_INTERVAL_MS + SYNC_INTERVAL_MS / 2 + node * STAGGER_MS

    def interval_end(self, round: int) -> float:
        return round * SYNC_INTERVAL_MS + SYNC_INTERVAL_MS - STAGGER_MS


class DriftClock(TickClock):
    """Free-running timers: per-replica phase and oscillator drift.

    Replica ``n`` draws, from a seeded stream private to it, a phase
    offset in ``[0, interval)`` and a period ``interval * (1 ± jitter)``;
    its ``k``-th timer fires at ``phase + k * period``.  Timers
    therefore precess against each other — two replicas' ticks drift
    through every possible relative alignment over a long run — which
    is what makes the mode free-running rather than staggered lockstep.
    Workload updates of interval ``round`` land at the node's phase
    point within that interval instead of at the interval base.

    Deterministic: the whole timeline is a pure function of
    ``(seed, jitter)``, so free-running experiments remain exactly
    replayable.
    """

    barrier = False

    def __init__(self, *, jitter: float = 0.05, seed: int = 0) -> None:
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.jitter = jitter
        self.seed = seed
        self._timers: Dict[int, Tuple[float, float]] = {}

    def _timer(self, node: int) -> Tuple[float, float]:
        """The node's (phase, period), drawn once from its private stream."""
        timer = self._timers.get(node)
        if timer is None:
            stride = 1_000_003
            rng = random.Random(self.seed * stride + node)
            phase = SYNC_INTERVAL_MS * rng.random()
            period = SYNC_INTERVAL_MS * (
                1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            )
            timer = (phase, period)
            self._timers[node] = timer
        return timer

    def update_at(self, round: int, node: int) -> float:
        phase, _ = self._timer(node)
        return round * SYNC_INTERVAL_MS + phase

    def sync_at(self, tick: int, node: int) -> float:
        phase, period = self._timer(node)
        return phase + tick * period

    def interval_end(self, round: int) -> float:
        return round * SYNC_INTERVAL_MS + SYNC_INTERVAL_MS - STAGGER_MS

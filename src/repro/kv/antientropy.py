"""Per-shard anti-entropy scheduling: the send budget and its cursor.

A replica of the sharded store runs one synchronizer instance per owned
shard.  Left alone, every shard would flush its δ-buffer on every tick;
under heavy multi-key traffic that can exceed what the replica's uplink
should spend per interval.  The scheduler imposes the **send budget** —
an upper bound on synchronization bytes planned per tick.  Shards are
visited round-robin from a rotating cursor; once the budget is spent
the remaining shards are *deferred*: their synchronizers are not asked
for messages, so their δ-buffers keep accumulating and the next tick
ships one larger, better-compressed δ-group per neighbour.  That is
delta-batching as backpressure — the same mechanism the paper exploits
by synchronizing once per interval rather than per update, extended
across a keyspace.

The scheduler also owns the replica's protocol clock (:attr:`tick`),
which the two exchanges that ride next to the inner protocols read:
repair (:mod:`repro.kv.repair` — δ-path coldness, blanket pushes,
digest probes) and rebalance handoff (:mod:`repro.kv.handoff` —
retransmission and segment pacing).  :class:`AntiEntropyConfig` is the
one set of knobs all three share.

The scheduler is deliberately deterministic — cursors, not randomness —
so simulated runs replay identically for every algorithm under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.sync.protocol import Send

#: Valid values of :attr:`AntiEntropyConfig.repair_mode`.
REPAIR_MODES = ("blanket", "digest")

#: Registry namespace of every counter the scheduler, the repair plane
#: and the handoff plane keep (``KVDriver.scheduler_stats`` sums it).
COUNTER_PREFIX = "scheduler."


@dataclass(frozen=True)
class AntiEntropyConfig:
    """The store's synchronization-scheduling knobs.

    Attributes:
        budget_bytes: Cap on planned synchronization bytes per tick per
            replica (``None`` = unlimited).  At least one shard is
            always served so progress is guaranteed.  Repair traffic is
            exempt: it is the recovery safety net, and starving it
            under budget pressure would let a reset or partitioned
            replica stay divergent indefinitely.
        repair_interval: In ``"blanket"`` mode, push full shard states
            every this many ticks; in ``"digest"`` mode, probe a
            (shard, peer) δ-path once it has been cold (no delta
            shipped or absorbed) for this many ticks.  0 disables
            repair; some form of repair is required for partition and
            crash recovery when the inner protocol clears buffers on
            send.
        repair_fanout: Shards repaired (blanket) or probed (digest) per
            tick, round-robin; also the cap on handoff segments shipped
            per tick.
        repair_mode: ``"blanket"`` (full-state push on a timer) or
            ``"digest"`` (divergence-driven probes; see
            :mod:`repro.kv.repair`).
    """

    budget_bytes: Optional[int] = None
    repair_interval: int = 0
    repair_fanout: int = 1
    repair_mode: str = "blanket"

    def __post_init__(self) -> None:
        if self.budget_bytes is not None and self.budget_bytes < 1:
            raise ValueError("budget_bytes must be positive (or None)")
        if self.repair_interval < 0:
            raise ValueError("repair_interval must be non-negative")
        if self.repair_fanout < 1:
            raise ValueError("repair_fanout must be at least 1")
        if self.repair_mode not in REPAIR_MODES:
            raise ValueError(
                f"repair_mode must be one of {REPAIR_MODES}, got {self.repair_mode!r}"
            )


class AntiEntropyScheduler:
    """Round-robin shard scheduling under a per-tick byte budget.

    Args:
        config: The scheduling knobs.
        shard_ids: The shards this replica hosts.
        registry: The replica's metrics registry the ``scheduler.*``
            counters live in (one is created privately when omitted).
            A cluster passes a registry that *outlives* store rebuilds.
    """

    #: ticks — planning ticks run (across store incarnations);
    #: synced — shard syncs actually planned;
    #: deferred — shard-sync opportunities skipped for lack of budget.
    COUNTERS = ("ticks", "synced", "deferred")

    def __init__(
        self,
        config: AntiEntropyConfig,
        shard_ids: Sequence[int],
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.shard_ids: Tuple[int, ...] = tuple(sorted(shard_ids))
        self._cursor = 0
        #: The protocol clock: planning ticks since the cluster started
        #: (a rebuilt store re-aligns it, ``KVStore.restore_clock``).
        self.tick = 0
        #: Bytes planned by the last :meth:`plan` call (handoff pacing
        #: reads it to honour the same per-tick budget).
        self.spent = 0
        self._count = self.registry.counters(COUNTER_PREFIX, self.COUNTERS)

    def apply_membership(self, shard_ids: Sequence[int]) -> None:
        """Swap the hosted-shard set after a ring rebalance."""
        self.shard_ids = tuple(sorted(shard_ids))
        self._cursor = self._cursor % len(self.shard_ids) if self.shard_ids else 0

    def plan(self, shards: Mapping[int, Any]) -> List[Tuple[int, Send]]:
        """One tick's ``(shard, send)`` pairs, budget- and fairness-limited.

        ``shards`` maps each hosted shard id to its copy (anything with
        ``sync_messages()``).  Calling that flushes the inner buffers,
        so deferred shards are never asked — their deltas survive to the
        next tick.
        """
        self.tick += 1
        self._count["ticks"].inc()
        self.spent = 0
        planned: List[Tuple[int, Send]] = []
        if not self.shard_ids:
            return planned
        n = len(self.shard_ids)
        budget = self.config.budget_bytes
        spent = 0
        served = 0
        for offset in range(n):
            if budget is not None and served > 0 and spent >= budget:
                self._count["deferred"].inc(n - served)
                break
            shard = self.shard_ids[(self._cursor + offset) % n]
            sends = shards[shard].sync_messages()
            served += 1
            self._count["synced"].inc()
            for send in sends:
                spent += send.message.total_bytes
                planned.append((shard, send))
        self._cursor = (self._cursor + served) % n
        self.spent = spent
        return planned

    def stats(self) -> Dict[str, int]:
        """This replica's whole ``scheduler.*`` namespace, prefix stripped.

        Reads the registry, so it reports the repair and handoff
        counters next to the scheduler's own, and on a shared
        (cluster-owned) registry the values span every store
        incarnation of the replica.  ``ticks`` counts planning ticks
        actually run — unlike :attr:`tick`, the protocol clock, which a
        rebuild re-aligns to the cluster round.
        """
        return {
            name[len(COUNTER_PREFIX):]: self.registry.counter(name).value
            for name in self.registry.names()
            if name.startswith(COUNTER_PREFIX)
        }

"""The shard-handoff exchange of a ring rebalance.

When the ring moves a shard, the cluster driver names one *source* (an
old owner, or a replica still retaining the shard from an earlier
change) per gaining owner, and the source ships the shard.  Everything
about that lives here, behind one :class:`HandoffPlane` per store: the
per-(shard, destination) state machine, what crosses the wire, what
each side does on receipt, the retained shards a source keeps until
the exchange settles, and the counters that account it.

The exchange per (shard, gaining replica) pair, ``S`` the source and
``G`` the gaining owner:

  1. S → G  ``kv-handoff-offer``    (root(S), size hint)    — O(hash)
  2. G → S  ``kv-handoff-ack``      (complete?, root)       — roots match ⇒ done
  3. S → G  ``kv-handoff-segment``  (compacted WAL records) — the shard
  4. G → S  ``kv-handoff-ack``      (complete=True, root(G))

The segment is the shard's compacted log — the canonical encoded join
decomposition (:meth:`repro.kv.shard.Shard.segment`) — and the receiver
absorbs it through :meth:`~repro.kv.shard.Shard.absorb`, so the content
is durable at ``G`` before the final ack leaves.  On that ack the
source — if it no longer owns the shard — fences and truncates its
shard log, so a later re-add cannot replay stale ownership.

Offers are metadata-sized and all go out immediately; segments carry
shard-sized payloads and are paced within the send budget.  An
unacknowledged phase retransmits after :data:`HANDOFF_RETRY_TICKS`.
Like repair, handoff traffic is counted where it *arrives*; the
started/completed/abandoned counters are the source's lifecycle view.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import sizes
from repro.codec import decode
from repro.kv.antientropy import COUNTER_PREFIX
from repro.kv.shard import Shard
from repro.lattice.base import Lattice
from repro.obs.trace import (
    HANDOFF_ACK,
    HANDOFF_FENCE,
    HANDOFF_OFFER,
    HANDOFF_SEGMENT,
)
from repro.sync.digest import ROOT_BYTES
from repro.sync.protocol import Message

if TYPE_CHECKING:
    from repro.kv.store import KVStore

#: Ticks a handoff waits for the peer's acknowledgement before
#: retransmitting its current phase (offer or segment) — the recovery
#: path when loss or a transient fault eats a handoff frame.
HANDOFF_RETRY_TICKS = 4


def _offer_message(shard: Shard) -> Message:
    """Phase 1: announce the handoff with the source's root hash."""
    return Message(
        kind="kv-handoff-offer",
        payload=(shard.root(), shard.state.size_bytes()),
        payload_units=0,
        payload_bytes=0,
        metadata_bytes=ROOT_BYTES + sizes.INT_BYTES,
        metadata_units=1,
    )


def _segment_message(shard: Shard) -> Message:
    records = tuple(shard.segment())
    return Message(
        kind="kv-handoff-segment",
        payload=records,
        payload_units=shard.state.size_units(),
        payload_bytes=sum(len(body) for body in records),
        metadata_bytes=sizes.INT_BYTES * (1 + len(records)),
        metadata_units=len(records),
    )


def _ack_message(complete: bool, root: Optional[bytes]) -> Message:
    return Message(
        kind="kv-handoff-ack",
        payload=(complete, root),
        payload_units=0,
        payload_bytes=0,
        metadata_bytes=2 + (ROOT_BYTES if root is not None else 0),
        metadata_units=1,
    )


class HandoffPlane:
    """One store's handoff state: sourced exchanges and retained shards."""

    COUNTERS = (
        "handoffs_started",
        "handoffs_completed",
        "handoffs_abandoned",
        "handoff_offers",
        "handoff_segments",
        "handoff_payload_bytes",
        "handoff_metadata_bytes",
    )

    def __init__(self, store: "KVStore") -> None:
        self.store = store
        #: Handoffs this replica is sourcing:
        #: (shard, dst) → {"phase": "offer" | "segment", "sent": tick | None}.
        self._handoffs: Dict[Tuple[int, int], Dict] = {}
        #: Shards this replica stopped owning but still sources a
        #: pending handoff from.  Fenced and dropped once the gaining
        #: owner acknowledges.
        self.retained: Dict[int, Shard] = {}
        self._count = store.registry.counters(COUNTER_PREFIX, self.COUNTERS)
        #: inner wire kind → handler, merged into the store's demux table.
        self.handlers = {
            "kv-handoff-offer": self._on_offer,
            "kv-handoff-segment": self._on_segment,
            "kv-handoff-ack": self._on_ack,
        }

    # ------------------------------------------------------------------
    # The source side.
    # ------------------------------------------------------------------

    def begin(self, shard_id: int, dst: int) -> None:
        """Begin sourcing a shard handoff to ``dst`` (offer goes first)."""
        key = (shard_id, dst)
        if key not in self._handoffs:
            self._count["handoffs_started"].inc()
        self._handoffs[key] = {"phase": "offer", "sent": None}

    def pending(self, shard_id: Optional[int] = None) -> int:
        """Handoffs still in flight (for ``shard_id`` when given)."""
        if shard_id is None:
            return len(self._handoffs)
        return sum(1 for shard, _ in self._handoffs if shard == shard_id)

    def due(self) -> List[Tuple[int, int, Message]]:
        """This tick's handoff transmissions as ``(dst, shard, message)``.

        Call once per tick, after the scheduler's ``plan``.  Segments
        are capped at ``repair_fanout`` per tick, throttled to one when
        ``plan`` already spent the tick's send budget, so a rebalance
        rides *within* the same budget that backpressures normal
        synchronization instead of spiking past it.
        """
        scheduler = self.store.scheduler
        budget = scheduler.config.budget_bytes
        segment_cap = scheduler.config.repair_fanout
        if budget is not None and scheduler.spent >= budget:
            segment_cap = 1
        segments = 0
        wire: List[Tuple[int, int, Message]] = []
        for (shard_id, dst), entry in sorted(self._handoffs.items()):
            sent = entry["sent"]
            if sent is not None and scheduler.tick - sent < HANDOFF_RETRY_TICKS:
                continue
            if entry["phase"] == "segment":
                if segments >= segment_cap:
                    continue
                segments += 1
            entry["sent"] = scheduler.tick
            shard = self.store.shards.get(shard_id) or self.retained.get(shard_id)
            if shard is None:
                # The shard's state is gone (e.g. a lose-state rebuild
                # mid-handoff); abandon — the gaining owner's coldness
                # probes will repair it from the surviving co-owners.
                self._close(shard_id, dst, "handoffs_abandoned")
            else:
                build = _offer_message if entry["phase"] == "offer" else _segment_message
                wire.append((dst, shard_id, build(shard)))
        return wire

    def _close(self, shard_id: int, dst: int, outcome: str) -> None:
        """Settle one handoff as ``outcome`` (a lifecycle counter name).

        Completion only ever means "a receiver confirmed it holds the
        shard"; abandonments — the source lost the state, or the
        receiver declined — are the failure signal an operator reads.
        """
        if self._handoffs.pop((shard_id, dst), None) is not None:
            self._count[outcome].inc()

    def fence(self, shard: Shard) -> None:
        """Seal a disowned shard's log so a re-add cannot resurrect it."""
        self.store.trace(HANDOFF_FENCE, shard=shard.id)
        shard.fence()

    def _on_ack(self, src: int, shard_id: int, message: Message) -> None:
        """Steps 2 and 4, at the source."""
        complete, root = message.payload
        self._count["handoff_metadata_bytes"].inc(message.metadata_bytes)
        self.store.trace(
            HANDOFF_ACK,
            shard=shard_id,
            peer=src,
            metadata_bytes=message.metadata_bytes,
            extra={"complete": complete, "rooted": root is not None},
        )
        if not complete:
            # The receiver lacks the offered content and wants the segment.
            entry = self._handoffs.get((shard_id, src))
            if entry is not None:
                entry["phase"] = "segment"
                entry["sent"] = None
        elif root is None:
            # A rootless completion is a *declination* (the ring moved
            # again and the peer is no longer the gaining owner): this
            # replica may still hold the only copy, so the retained
            # shard and its log stay until a later rebalance re-sources
            # or regains the shard.
            self._close(shard_id, src, "handoffs_abandoned")
        else:
            # The receiver's root is proof a replica now durably holds
            # the content: fence a retained source once its last
            # handoff settles.
            self._close(shard_id, src, "handoffs_completed")
            if shard_id in self.retained and not self.pending(shard_id):
                self.fence(self.retained.pop(shard_id))

    # ------------------------------------------------------------------
    # The gaining side.
    # ------------------------------------------------------------------

    def _arrive(
        self, src: int, shard_id: int, message: Message, counter: str, event: str, **extra
    ) -> Optional[Shard]:
        """Account and trace a frame from a source; the shard it is for.

        ``None`` when the ring moved again and this replica is no
        longer the gaining owner: the caller completes rootless so the
        source stops sending.
        """
        shard = self.store.shards.get(shard_id)
        self._count[counter].inc()
        self._count["handoff_payload_bytes"].inc(message.payload_bytes)
        self._count["handoff_metadata_bytes"].inc(message.metadata_bytes)
        self.store.trace(
            event,
            shard=shard_id,
            peer=src,
            payload_bytes=message.payload_bytes,
            metadata_bytes=message.metadata_bytes,
            payload_units=message.payload_units,
            extra={**extra, "gaining": shard is not None},
        )
        if shard is None:
            self.store.stale_shard_messages += 1
        return shard

    def _on_offer(self, src: int, shard_id: int, message: Message) -> Message:
        """Step 1 → 2: skip the segment when the roots already match."""
        root, _size_hint = message.payload
        shard = self._arrive(src, shard_id, message, "handoff_offers", HANDOFF_OFFER)
        if shard is None:
            return _ack_message(True, None)
        mine = shard.root()
        if mine != root:
            return _ack_message(False, None)
        # Already holding the offered content (a retried offer, or
        # repair beat the handoff): skip the segment bytes.
        self.store.repair.note_delta_activity(shard_id, src)
        return _ack_message(True, mine)

    def _on_segment(self, src: int, shard_id: int, message: Message) -> Message:
        """Step 3 → 4: absorb the shipped log records, ack with our root."""
        shard = self._arrive(
            src,
            shard_id,
            message,
            "handoff_segments",
            HANDOFF_SEGMENT,
            records=len(message.payload),
        )
        if shard is None:
            return _ack_message(True, None)
        content: Optional[Lattice] = None
        for body in message.payload:
            delta = decode(body)
            content = delta if content is None else content.join(delta)
        if content is not None and not content.is_bottom:
            shard.absorb(content, src, drain=True)
            self.store.repair.note_delta_activity(shard_id, src)
        return _ack_message(True, shard.root())

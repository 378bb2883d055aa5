"""One hosted copy of a shard: the only code that can inflate it.

A :class:`Shard` bundles what a replica keeps per shard copy — the
inner synchronizer over the shard's replica group, the fingerprint
index the repair and handoff exchanges read three ways (:meth:`Shard.
root` to probe, :meth:`Shard.fingerprints` to announce,
:meth:`Shard.missing` to ship exactly what a peer's digest lacks), and
the handle on the shard's write-ahead log.  Bundling them is what
turns two store invariants from conventions into structure:

* **every inflation reaches the log** — :meth:`Shard.write` (a local
  typed write), :meth:`Shard.deliver` (a peer's sync message) and
  :meth:`Shard.absorb` (content that arrived outside the inner
  protocol: a repair delta, a handoff segment, a client-pushed
  fragment) are the only ways to grow the state, and each stages the
  *optimal delta* it produced — never the raw payload — so the log
  stays redundancy-free whatever the inner protocol re-ships;
* **a retained shard keeps its digest** — the object moves whole
  between a store's hosted set and its handoff plane's retained set,
  and survives a replica-group change through :meth:`Shard.regroup`.

Content that is *already durable* — a WAL replay, the state carried
across a regroup — enters through :meth:`Shard.restore`, which neither
logs nor propagates.  That is the δ-buffer discipline of delta-mutation
CRDTs (Almeida et al., PAPERS.md) written down once: a buffer holds
*news*; restoration is content every surviving co-owner already held,
so the propagation buffers ``absorb_state`` fills are drained and
discarded, and digest repair covers the genuinely divergent remainder.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.codec import encode
from repro.lattice.base import Lattice
from repro.lattice.map_lattice import MapLattice
from repro.sync.digest import IncrementalDigest
from repro.sync.protocol import DeltaMutator, Message, Send, Synchronizer
from repro.wal import ReplicaWal


def _keyspace_novelty(before: MapLattice, after: MapLattice) -> MapLattice:
    """The optimal delta ``∆(after, before)`` of one shard keyspace.

    ``MapLattice.join`` copies its entry dict but *reuses* the value
    objects of untouched keys, so a post-delivery state shares those
    objects with the pre-delivery one.  Exploiting that, the scan costs
    one identity check per key plus per-value ``∆`` work only where the
    message actually landed — instead of decomposing the whole shard
    state per delivered message, which would put O(shard) work on the
    hot path of every WAL-enabled run.

    The ``after is before`` shortcut is sound because ``before`` was read
    through ``inner.state``: a handed-out value is immutable to everyone,
    its replica included, so a delivery that inflates the state makes a
    new value instead of joining into ``before`` in place.
    """
    if after is before:
        return after.bottom_like()
    previous = before.entries
    changed: Dict = {}
    for key, value in after.entries.items():
        mine = previous.get(key)
        if mine is value:
            continue
        if mine is None:
            changed[key] = value
            continue
        delta = value.delta(mine)
        if not delta.is_bottom:
            changed[key] = delta
    if not changed:
        return after.bottom_like()
    return MapLattice(changed)


class Shard:
    """One replica's copy of one shard.

    Args:
        shard_id: The shard's index on the ring.
        inner: The synchronizer replicating it across its owner group.
        wal: The replica's write-ahead log (``None`` = no logging); the
            shard only ever touches its own log in it.
    """

    __slots__ = ("id", "inner", "_digest", "_wal")

    def __init__(
        self, shard_id: int, inner: Synchronizer, wal: Optional[ReplicaWal] = None
    ) -> None:
        self.id = shard_id
        self.inner = inner
        # Identity-refreshed, so it stays correct across ``regroup``
        # and needs no invalidation hook anywhere.
        self._digest = IncrementalDigest()
        self._wal = wal

    @property
    def state(self) -> MapLattice:
        return self.inner.state

    @property
    def neighbors(self) -> Tuple[int, ...]:
        """The shard's co-owners (its replica group minus this replica)."""
        return tuple(self.inner.neighbors)

    def root(self) -> bytes:
        """``root_of(digest_of(state))``, incrementally kept.

        The probe the repair plane, the handoff offer and the
        convergence-lag sampler compare — O(1) for a quiescent shard.
        """
        return self._digest.root(self.inner.state)

    def fingerprints(self) -> FrozenSet:
        """The state's irreducible-set digest (``digest_of(state)``)."""
        return self._digest.digest(self.inner.state)

    def missing(self, remote_digest: FrozenSet) -> Lattice:
        """What a peer holding ``remote_digest`` lacks of this shard.

        ``delta_against_digest(state, remote_digest)`` read off the same
        index as :meth:`root` and :meth:`fingerprints`: no irreducible
        is fingerprinted again, and only values the peer holds *part*
        of are decomposed.
        """
        return self._digest.missing(self.inner.state, remote_digest)

    def sync_messages(self) -> List[Send]:
        """The inner protocol's periodic step (flushes its buffers)."""
        return self.inner.sync_messages()

    # ------------------------------------------------------------------
    # The three inflations.  Each logs exactly the delta it produced.
    # ------------------------------------------------------------------

    def write(self, mutator: DeltaMutator) -> Lattice:
        """Apply a local δ-mutator; return (and log) its delta."""
        delta = self.inner.local_update(mutator)
        self._log(delta)
        return delta

    def deliver(self, src: int, message: Message) -> List[Send]:
        """Hand a peer's sync message to the inner protocol.

        Logs what the message actually taught the shard, as an optimal
        delta against the pre-delivery state.
        """
        before = self.inner.state
        replies = self.inner.handle_message(src, message)
        if self._wal is not None:
            self._log(_keyspace_novelty(before, self.inner.state))
        return replies

    def absorb(self, content: Lattice, src: Optional[int], *, drain: bool) -> Lattice:
        """Join content that arrived outside the inner protocol.

        Goes through ``absorb_state`` so every inner protocol's
        bookkeeping (δ-buffers, Scuttlebutt versions) stays truthful.
        With ``drain`` the propagation buffers that hook filled are
        discarded: the sender is shipping the same content to the other
        owners itself (a quorum client, a handoff whose co-owners
        already hold almost all of it), and coldness probes cover the
        stragglers for a digest's worth of bytes.  Without it the
        novelty flows onward like any delta (digest repair).

        Returns the delta that strictly inflated the state.
        """
        absorbed = self.inner.absorb_state(content, src)
        if drain:
            self.inner.sync_messages()
        self._log(absorbed)
        return absorbed

    def _log(self, delta: Lattice) -> None:
        if self._wal is not None and not delta.is_bottom:
            self._wal.append(self.id, delta)

    # ------------------------------------------------------------------
    # Restoration: content that is already durable.
    # ------------------------------------------------------------------

    def restore(self, state: Lattice) -> None:
        """Re-seat already-durable content: not logged, not propagated."""
        self.inner.absorb_state(state, None)
        self.inner.sync_messages()

    def regroup(self, inner: Synchronizer) -> None:
        """Swap in a synchronizer over a new replica group.

        Per-neighbour protocol state — sequence numbers, ack maps — is
        peer-shaped and cannot be mutated in place, so the group change
        rebuilds the synchronizer and restores the content into it.
        """
        state, self.inner = self.inner.state, inner
        self.restore(state)

    def replay(self) -> bool:
        """Restore the shard from its log; False when the log was empty."""
        if self._wal is None:
            return False
        state = self._wal.replay(self.id)
        if state is None or state.is_bottom:
            return False
        self.restore(state)
        return True

    # ------------------------------------------------------------------
    # The log across an ownership change.
    # ------------------------------------------------------------------

    def segment(self) -> List[bytes]:
        """The shard as handoff-ready record bodies.

        With a WAL the segment *is* the log — staged records are
        group-committed first so the export covers this tick's writes,
        then the log compacts to the single record of its join.  A
        shard without a log (the ``"repair"`` recovery policy) ships
        the encoded join decomposition of the live state: the same
        canonical bytes the log would have compacted to.
        """
        if self._wal is not None:
            records = self._wal.export_segment(self.id)
            if records:
                return records
        return [encode(self.inner.state)]

    def fence(self) -> None:
        """Seal and truncate the log so a re-add cannot resurrect it."""
        if self._wal is not None:
            self._wal.fence(self.id)

    def unfence(self) -> None:
        """Reopen the log: this replica owns the shard again."""
        if self._wal is not None:
            self._wal.unfence(self.id)

    def __repr__(self) -> str:
        return f"Shard({self.id}, keys={len(self.inner.state)}, peers={self.neighbors})"

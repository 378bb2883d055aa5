"""The per-replica engine of the sharded CRDT key-value store.

:class:`KVStore` is one replica's store process.  It owns a slice of
the keyspace — one :class:`~repro.kv.shard.Shard` (a
:class:`~repro.lattice.map_lattice.MapLattice` of ``key → CRDT state``
behind an inner synchronizer, with its digest and log) per shard the
ring places here.  The inner synchronizer is built from any
:class:`~repro.sync.protocol.Synchronizer` factory: state-based,
delta-based with BP/RR, Scuttlebutt, keyed, or Merkle-digest.  Each
inner instance's neighbourhood is the shard's *replica group*, so
anti-entropy traffic flows only between co-owners, not the whole
cluster.

The store itself does four jobs and delegates the rest:

* **routing** — key → shard → :class:`Shard`, or
  :class:`KVRoutingError`;
* **the typed API** — ``update`` / ``remove`` / ``get`` resolve the
  key's type by its prefix (:func:`~repro.kv.types.spec_for`), compute the
  optimal δ of the mutation against the key's current value, and hand
  the one-key keyspace delta to :meth:`Shard.write`;
* **wire packaging** — outwardly the store is itself a
  :class:`Synchronizer`, which is what lets one
  :class:`~repro.net.runtime.ReplicaRuntime` host it unmodified over
  any :class:`~repro.net.transport.Transport`.  ``sync_messages`` asks
  the :class:`~repro.kv.antientropy.AntiEntropyScheduler` which shards
  to serve this tick, collects what the repair and handoff planes have
  due, and bundles everything per destination into one ``kv-batch``
  message; ``handle_message`` demultiplexes a batch back to the shards
  (inner-protocol kinds) or, through one ``kind → handler`` table, to
  the plane that owns the kind;
* **membership** — :meth:`KVStore.apply_ring` reshapes the hosted-shard
  set when the cluster swaps the ring.

Two exchanges ride alongside the inner protocols, each behind one
module: repair (:mod:`repro.kv.repair`, ``kv-digest`` / ``kv-diff`` /
``kv-repair``) and rebalance handoff (:mod:`repro.kv.handoff`,
``kv-handoff-*``).

Wire framing adds one shard tag per bundled shard message; payload and
metadata accounting of the inner protocols is preserved unchanged, so
cross-algorithm byte comparisons measured through the store remain as
meaningful as the paper's single-object ones.

When constructed with a :class:`~repro.wal.ReplicaWal`, every delta
that inflates a shard is staged to that shard's log by the
:class:`Shard` itself and group-committed once per tick here, and
:meth:`KVStore.replay_wal` is the recovery path that rebuilds a reset
replica from its own disk before digest repair covers the post-crash
remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro import sizes
from repro.kv.antientropy import AntiEntropyConfig, AntiEntropyScheduler
from repro.kv.handoff import HandoffPlane
from repro.kv.repair import RepairPlane
from repro.kv.ring import HashRing
from repro.kv.shard import Shard
from repro.kv.types import spec_for
from repro.lattice.base import Lattice
from repro.lattice.map_lattice import MapLattice
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import READ_REPAIR, Tracer
from repro.sync.protocol import Message, Send, Synchronizer
from repro.wal import ReplicaWal


class KVRoutingError(LookupError):
    """The key is not owned by this replica (ask the ring for owners)."""


@dataclass(frozen=True)
class KVUpdate:
    """One typed write: ``op(*args)`` on ``key``.

    The workload layer pre-draws these and the cluster harness routes
    them to an owner replica, mirroring a smart client that knows the
    ring.
    """

    key: Hashable
    op: str
    args: Tuple = ()


class KVStore(Synchronizer):
    """One replica of the sharded, replicated key-value store."""

    name = "kv-store"

    def __init__(
        self,
        replica: int,
        neighbors: Sequence[int],
        bottom: Lattice,
        n_nodes: int,
        *,
        ring: HashRing,
        inner_factory,
        antientropy: Optional[AntiEntropyConfig] = None,
        wal: Optional[ReplicaWal] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not isinstance(bottom, MapLattice) or not bottom.is_bottom:
            raise TypeError("a KVStore keyspace starts from an empty MapLattice")
        # Synchronizer.__init__ would bind ``self.state``; the store's
        # state is the join of its shard states, exposed as a property.
        self.replica = replica
        self.neighbors = tuple(neighbors)
        self.bottom = bottom
        self.n_nodes = n_nodes

        self.ring = ring
        self.inner_factory = inner_factory
        #: The durable per-shard delta log, shared across incarnations
        #: of this replica (``None`` disables write-ahead logging).
        self.wal = wal
        #: δ-paths restored by :meth:`replay_wal`, consumed by
        #: :meth:`restore_clock` once the cluster round is known.
        self._replayed_paths: Tuple[Tuple[int, int], ...] = ()
        #: Wire messages that arrived for a shard the current ring does
        #: not place here — in-flight traffic outrun by a rebalance.
        self.stale_shard_messages = 0
        #: This replica's metrics registry — the single observability
        #: namespace the runtime's ``metrics`` view exposes, and the one
        #: the WAL counts in.  A cluster passes one that outlives store
        #: rebuilds; a standalone store shares its WAL's, or gets a
        #: private one.
        if registry is None:
            registry = wal.registry if wal is not None else MetricsRegistry()
        self.registry = registry
        #: Structured trace destination (``None`` = tracing off).
        self.tracer = tracer
        #: shard id → this replica's hosted copy of that shard.
        self.shards: Dict[int, Shard] = {
            shard: Shard(shard, self._make_inner(self._peers(shard)), wal)
            for shard in ring.shards_owned_by(replica)
        }
        self.scheduler = AntiEntropyScheduler(
            antientropy if antientropy is not None else AntiEntropyConfig(),
            self.shards,
            registry=self.registry,
        )
        self.repair = RepairPlane(self)
        self.handoff = HandoffPlane(self)
        #: inner wire kind → handler for the kinds that are not the
        #: inner protocol's own (those go to :meth:`Shard.deliver`).
        self._exchanges = {**self.repair.handlers, **self.handoff.handlers}

    def _peers(self, shard: int) -> Tuple[int, ...]:
        """The shard's co-owners, verified reachable over the overlay."""
        group = self.ring.shard_owners(shard)
        reachable = set(self.neighbors) | {self.replica}
        missing = [peer for peer in group if peer not in reachable]
        if missing:
            raise ValueError(
                f"replica {self.replica} cannot reach co-owners {missing} of "
                f"shard {shard}; the cluster topology must connect every "
                "replica group"
            )
        return tuple(peer for peer in group if peer != self.replica)

    def _make_inner(self, peers: Sequence[int]) -> Synchronizer:
        """One shard's inner synchronizer over its replica group."""
        return self.inner_factory(
            replica=self.replica,
            neighbors=peers,
            bottom=self.bottom,
            n_nodes=self.n_nodes,
        )

    def shard_root(self, shard: int) -> Optional[bytes]:
        """The root hash of a hosted shard's state (``None`` if not hosted).

        Equal to ``root_of(digest_of(state))`` by construction, and
        O(1) for a quiescent shard (:meth:`Shard.root`).
        """
        copy = self.shards.get(shard)
        return copy.root() if copy is not None else None

    def copies(self) -> Dict[int, Shard]:
        """Every shard copy this replica holds, by shard id.

        The hosted shards plus the ones it no longer owns but retains
        as the source of a pending handoff — what a rebalance planner
        may source from.
        """
        return {**self.handoff.retained, **self.shards}

    def trace(self, event: str, **fields) -> None:
        """Emit one structured trace event from this replica, if tracing."""
        if self.tracer is not None:
            self.tracer.emit(event, replica=self.replica, **fields)

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------

    def owns(self, key: Hashable) -> bool:
        """True when this replica holds a copy of ``key``'s shard."""
        return self.ring.shard_of(key) in self.shards

    def _route(self, key: Hashable) -> Shard:
        """Resolve a key to its hosted shard in one hash."""
        shard = self.ring.shard_of(key)
        copy = self.shards.get(shard)
        if copy is None:
            raise KVRoutingError(
                f"replica {self.replica} does not own key {key!r} "
                f"(shard {shard}, owners {self.ring.shard_owners(shard)})"
            )
        return copy

    def hosted(self, shard: int) -> Optional[Shard]:
        """The hosted shard a wire message addresses, or ``None`` if stale.

        ``None`` means in-flight traffic outrun by a rebalance — the
        sender addressed an owner group this replica has left — which
        is counted and dropped.  Traffic for a shard the ring *does*
        place here but the store does not host is an inconsistency and
        raises.
        """
        copy = self.shards.get(shard)
        if copy is None:
            if self.replica in self.ring.shard_owners(shard):
                raise KVRoutingError(
                    f"replica {self.replica} received traffic for unowned "
                    f"shard {shard}"
                )
            self.stale_shard_messages += 1
        return copy

    # ------------------------------------------------------------------
    # Typed client API.
    # ------------------------------------------------------------------

    def update(self, key: Hashable, op: str, *args) -> Lattice:
        """Apply a typed write locally; return the keyspace delta.

        With a WAL the δ is only staged: it is durable at the next
        tick's group commit (:meth:`sync_messages`), or at once where
        the caller commits, as a replica process does before its ack.
        """
        return self.local_update(KVUpdate(key, op, tuple(args)))

    def remove(self, key: Hashable) -> Lattice:
        """Remove ``key``'s observed content (observed-remove types only)."""
        return self._write(
            key,
            lambda spec, current: (
                spec.remove_delta(self.replica, current) if current is not None else None
            ),
        )

    def _write(self, key: Hashable, key_delta) -> Lattice:
        """The one write path: a per-key δ lifted to the owning shard.

        ``key_delta(spec, current)`` returns the key's delta against
        its current value (``None`` or bottom for a no-op).
        """
        copy = self._route(key)
        spec = spec_for(key)

        def mutator(keyspace: MapLattice) -> MapLattice:
            delta = key_delta(spec, keyspace.get(key))
            if delta is None or delta.is_bottom:
                return keyspace.bottom_like()
            return MapLattice({key: delta})

        return copy.write(mutator)

    def get(self, key: Hashable) -> Any:
        """The typed query-side value of ``key`` at this replica."""
        spec = spec_for(key)
        current = self._route(key).state.get(key)
        return spec.read(current if current is not None else spec.bottom())

    def value_lattice(self, key: Hashable) -> Optional[Lattice]:
        """The raw lattice value of ``key`` (``None`` when unwritten)."""
        return self._route(key).state.get(key)

    def keys(self) -> Iterator[Hashable]:
        """Every key with a non-bottom value on this replica."""
        for shard in sorted(self.shards):
            yield from self.shards[shard].state.keys()

    def absorb_client_state(
        self, fragment: MapLattice, *, payload_bytes: Optional[int] = None
    ) -> Lattice:
        """Absorb a client-pushed keyspace fragment (quorum write / read repair).

        The serving layer's second write path: a :class:`~repro.serve.
        client.KVClient` replicating a write to ``w`` owners — or
        pushing the join of divergent read replies back — ships the
        *delta* it already holds instead of re-applying the typed
        operation (which would double-count non-idempotent ops like
        counter increments; the lattice join is idempotent, the op is
        not).  Keys are grouped per owning shard and absorbed drained:
        the client pushes the same fragment to the other owners itself,
        and anti-entropy covers stragglers.

        Returns the join of what the fragment actually taught this
        replica (bottom when everything was already known).  Raises
        :class:`KVRoutingError` when any key lands on an unowned shard.
        """
        by_shard: Dict[int, Dict[Hashable, Lattice]] = {}
        for key, value in fragment.entries.items():
            by_shard.setdefault(self._route(key).id, {})[key] = value
        if payload_bytes is None:
            payload_bytes = fragment.size_bytes()
        self.repair.note_read_repair(payload_bytes)
        absorbed_all = fragment.bottom_like()
        for shard in sorted(by_shard):
            piece = MapLattice(by_shard[shard])
            absorbed = self.shards[shard].absorb(piece, None, drain=True)
            if not absorbed.is_bottom:
                absorbed_all = absorbed_all.join(absorbed)
            if self.tracer is not None:
                self.tracer.emit(
                    READ_REPAIR,
                    replica=self.replica,
                    shard=shard,
                    payload_bytes=piece.size_bytes(),
                    payload_units=piece.size_units(),
                    extra={
                        "keys": len(piece.entries),
                        "absorbed": not absorbed.is_bottom,
                    },
                )
        return absorbed_all

    # ------------------------------------------------------------------
    # Synchronizer protocol: the store on the simulated cluster.
    # ------------------------------------------------------------------

    @property
    def state(self) -> MapLattice:
        """This replica's merged keyspace view (all hosted shards)."""
        merged = self.bottom
        for shard in sorted(self.shards):
            merged = merged.join(self.shards[shard].state)
        return merged

    def local_update(self, delta_mutator) -> Lattice:
        """Apply one :class:`KVUpdate` through the owning shard."""
        if not isinstance(delta_mutator, KVUpdate):
            raise TypeError(
                "a KVStore applies KVUpdate operations, not raw mutators; "
                "use store.update(key, op, *args)"
            )
        op = delta_mutator
        replica = self.replica
        return self._write(
            op.key,
            lambda spec, current: spec.apply(
                replica, spec.bottom() if current is None else current, op.op, *op.args
            ),
        )

    def sync_messages(self) -> List[Send]:
        if self.wal is not None:
            # Group commit: every delta staged since the previous tick —
            # local writes, absorbed sync novelty, repair absorptions —
            # is encoded here and becomes durable in one batch per shard
            # log, so the codec stays off the write path.  A crash
            # between ticks loses only the records staged after this
            # point, which is the WAL's documented durability boundary.
            self.wal.commit()
        planned = self.scheduler.plan(self.shards)
        # Coldness is judged on the δ-path clocks as the tick found
        # them, before this tick's own sends warm them.
        repairs = self.repair.due()
        wire: List[Tuple[int, int, Message]] = []
        for shard, send in planned:
            if send.message.payload_bytes:
                self.repair.note_delta_activity(shard, send.dst)
            wire.append((send.dst, shard, send.message))
        wire.extend(repairs)
        wire.extend(self.handoff.due())
        return self._package(wire)

    def handle_message(self, src: int, message: Message) -> List[Send]:
        if message.kind != "kv-batch":
            raise ValueError(f"unexpected wire message kind {message.kind!r}")
        wire: List[Tuple[int, int, Message]] = []
        for shard, inner_message in message.payload:
            exchange = self._exchanges.get(inner_message.kind)
            if exchange is not None:
                reply = exchange(src, shard, inner_message)
                if reply is not None:
                    wire.append((src, shard, reply))
                continue
            copy = self.hosted(shard)
            if copy is None:
                continue
            if inner_message.payload_bytes:
                self.repair.note_delta_activity(shard, src)
            for reply in copy.deliver(src, inner_message):
                if reply.message.payload_bytes:
                    self.repair.note_delta_activity(shard, reply.dst)
                wire.append((reply.dst, shard, reply.message))
        return self._package(wire)

    def _package(self, wire: List[Tuple[int, int, Message]]) -> List[Send]:
        """Frame shard messages for the wire, one batch per destination.

        Each framed shard message costs one shard tag
        (``sizes.INT_BYTES``/one entry) on top of the inner accounting.
        """
        grouped: Dict[int, List[Tuple[int, Message]]] = {}
        for dst, shard, inner in wire:
            grouped.setdefault(dst, []).append((shard, inner))
        return [
            Send(
                dst=dst,
                message=Message(
                    kind="kv-batch",
                    payload=tuple(entries),
                    payload_units=sum(m.payload_units for _, m in entries),
                    payload_bytes=sum(m.payload_bytes for _, m in entries),
                    metadata_bytes=sum(m.metadata_bytes for _, m in entries)
                    + sizes.INT_BYTES * len(entries),
                    metadata_units=sum(m.metadata_units for _, m in entries)
                    + len(entries),
                ),
            )
            for dst, entries in grouped.items()
        ]

    # ------------------------------------------------------------------
    # Membership: the ring swap of a rebalance.
    # ------------------------------------------------------------------

    def apply_ring(
        self,
        ring: HashRing,
        *,
        retain=frozenset(),
        fence: bool = True,
        neighbors: Optional[Sequence[int]] = None,
    ) -> None:
        """Swap to a new ring mid-run, reshaping the hosted-shard set.

        ``neighbors`` is the new overlay when the membership change
        moved it too (a deployment whose overlay is the full replica
        set); the vector-sizing ``n_nodes`` grows to cover it.

        Three shard transitions, all while traffic keeps flowing:

        * **gained** — a fresh (empty) shard over the new replica
          group; content arrives through the handoff exchange (or,
          failing that, through digest repair).  A fenced WAL log from
          a previous ownership is reopened — it was truncated at fence
          time, so nothing stale can replay.  A shard regained while
          this replica still retains it as a handoff source keeps the
          retained content instead of starting empty.
        * **lost** — the shard leaves :attr:`shards`.  A shard named in
          ``retain`` moves to the handoff plane's retained set because
          this replica is the designated handoff source; everything
          else is fenced immediately (log truncated, state dropped).
          With ``fence=False`` — a *crashed* replica being reshaped by
          the cluster — logs are left untouched instead: the down
          replica may hold the only durable copy of a shard no live
          owner can source, and truncating it here would turn a
          membership change into data loss.  CRDT join makes the
          preserved content safe: if the replica later regains the
          shard, old records join below the handed-off state instead of
          resurrecting it.
        * **kept with a changed group** — the shard is regrouped
          (:meth:`Shard.regroup`).  The paths to *surviving* co-owners
          are marked suspect, because the regroup discarded δ-buffers
          that may have held unshipped novelty; paths to new co-owners
          start warm so the handoff gets one coldness interval to land
          before probes re-ship the shard.
        """
        if neighbors is not None:
            self.neighbors = tuple(neighbors)
            self.n_nodes = max(self.n_nodes, max(self.neighbors, default=-1) + 1)
        self.ring = ring
        old_owned = set(self.shards)
        new_owned = set(ring.shards_owned_by(self.replica))
        suspect: List[Tuple[int, int]] = []
        for shard in sorted(new_owned - old_owned):
            inner = self._make_inner(self._peers(shard))
            copy = self.handoff.retained.pop(shard, None)
            if copy is None:
                copy = Shard(shard, inner, self.wal)
            else:
                copy.regroup(inner)
            copy.unfence()
            self.shards[shard] = copy
        for shard in sorted(old_owned - new_owned):
            copy = self.shards.pop(shard)
            if shard in retain:
                self.handoff.retained[shard] = copy
            elif fence:
                self.handoff.fence(copy)
        for shard in sorted(new_owned & old_owned):
            copy = self.shards[shard]
            old_peers = set(copy.neighbors)
            peers = self._peers(shard)
            if set(peers) == old_peers:
                continue
            copy.regroup(self._make_inner(peers))
            suspect.extend((shard, peer) for peer in old_peers.intersection(peers))
        self.scheduler.apply_membership(self.shards)
        self.repair.apply_membership(suspect_paths=suspect)

    # ------------------------------------------------------------------
    # Fault signals from the transport and rebuild alignment.
    # ------------------------------------------------------------------

    def note_send_blocked(self, dst: int) -> None:
        """The transport refused a send to ``dst`` (down peer / cut link)."""
        self.repair.note_peer_unreachable(dst)

    def restore_clock(self, ticks: int) -> None:
        """Carry the cluster round into a rebuilt store's protocol clock.

        A rebuilt replica starts from ``tick == 0``, silently
        desynchronizing its repair cadence from the co-owners that kept
        their clocks; carrying the cluster round in keeps blanket repair
        phases and coldness thresholds aligned across the group.

        δ-paths restored by a WAL replay are marked active *here* —
        after the tick counter has jumped to the cluster round — so the
        replay counts as fresh activity instead of being instantly
        re-frozen by the clock realignment.
        """
        self.scheduler.tick = ticks
        replayed, self._replayed_paths = self._replayed_paths, ()
        for shard, peer in replayed:
            self.repair.note_delta_activity(shard, peer)

    def replay_wal(self, *, verify: bool = False) -> int:
        """Rebuild shard states from the durable log; return shards restored.

        The recovery path of ``crash(lose_state=True)`` under a WAL
        recovery policy: each hosted shard's log replays to the join of
        every delta the previous incarnations committed, and the result
        is *restored* (:meth:`Shard.restore`) — the fresh synchronizer's
        bookkeeping covers it, but it is neither logged again nor
        propagated.

        With ``verify`` (the ``wal+repair`` policy) every δ-path is
        additionally marked suspect, so the rebuilt replica immediately
        root-probes its co-owners instead of trusting the replay —
        one ``ROOT_BYTES`` probe per path buys certainty even when the
        peers' own suspicion signals were lost (e.g. they also crashed).
        Otherwise the replayed δ-paths are marked active once
        :meth:`restore_clock` realigns the scheduler.
        """
        if self.wal is None:
            return 0
        # The crash boundary of group commit, enforced by the recovery
        # path itself: records staged by the dead incarnation but never
        # committed are gone — replaying without dropping them would
        # retroactively make them durable at the next tick's commit.
        self.wal.discard_staged()
        restored = 0
        warm: List[Tuple[int, int]] = []
        for shard in sorted(self.shards):
            copy = self.shards[shard]
            if copy.replay():
                restored += 1
                warm.extend((shard, peer) for peer in copy.neighbors)
        if verify:
            self.repair.suspect_all_paths()
        else:
            self._replayed_paths = tuple(warm)
        return restored

    # ------------------------------------------------------------------
    # Memory accounting: sums over the shard instances.
    # ------------------------------------------------------------------

    def state_units(self) -> int:
        return sum(copy.state.size_units() for copy in self.shards.values())

    def state_bytes(self) -> int:
        return sum(
            copy.state.size_bytes() for copy in self.shards.values()
        )

    def buffer_units(self) -> int:
        return sum(copy.inner.buffer_units() for copy in self.shards.values())

    def buffer_bytes(self) -> int:
        return sum(copy.inner.buffer_bytes() for copy in self.shards.values())

    def metadata_bytes(self) -> int:
        return sum(copy.inner.metadata_bytes() for copy in self.shards.values())

    def metadata_units(self) -> int:
        return sum(copy.inner.metadata_units() for copy in self.shards.values())

    def __repr__(self) -> str:
        return (
            f"KVStore(replica={self.replica}, shards={sorted(self.shards)}, "
            f"keys={sum(len(s.state) for s in self.shards.values())})"
        )


def kv_store_factory(
    ring,
    inner_factory,
    *,
    antientropy: Optional[AntiEntropyConfig] = None,
    wal_provider=None,
    registry_provider=None,
    tracer: Optional[Tracer] = None,
):
    """Bind store parameters into a cluster-compatible node factory.

    The returned callable has the :data:`~repro.sync.protocol.
    SynchronizerFactory` signature, so ``Cluster(config, factory,
    MapLattice())`` builds one store process per simulated node.

    ``ring`` may be a :class:`~repro.kv.ring.HashRing` or a zero-arg
    callable returning one, resolved at *build* time: a cluster whose
    membership changes mid-run passes a provider, so a store rebuilt by
    ``crash(lose_state=True)`` after a rebalance opens on the current
    placement instead of the ring the cluster started with.

    ``wal_provider`` maps a replica index to its durable
    :class:`~repro.wal.ReplicaWal`; it is a callable (not a dict) so
    a store rebuilt after ``crash(lose_state=True)`` reattaches to the
    *same* log object its predecessor wrote.

    ``registry_provider`` plays the same role for the replica's
    :class:`~repro.obs.metrics.MetricsRegistry` — the rebuilt store
    re-binds to the counters its predecessor incremented — and
    ``tracer`` (one per cluster, not per replica) threads the
    structured trace into every store built.
    """

    def factory(
        replica: int,
        neighbors: Sequence[int],
        bottom: Lattice,
        n_nodes: int,
    ) -> KVStore:
        return KVStore(
            replica=replica,
            neighbors=neighbors,
            bottom=bottom,
            n_nodes=n_nodes,
            ring=ring() if callable(ring) else ring,
            inner_factory=inner_factory,
            antientropy=antientropy,
            wal=wal_provider(replica) if wal_provider is not None else None,
            registry=(
                registry_provider(replica) if registry_provider is not None else None
            ),
            tracer=tracer,
        )

    inner_name = getattr(inner_factory, "name", getattr(inner_factory, "__name__", "?"))
    factory.__name__ = f"kv_store_{inner_name}".replace("-", "_")
    factory.name = f"kv[{inner_name}]"  # type: ignore[attr-defined]
    return factory

"""The sharded store's cluster driver: one implementation, two backends.

Everything a store cluster does that is independent of *where* its
replicas live is defined once in :class:`KVDriver`: smart-client
routing, per-shard convergence, the live-membership flow with its
transfer planner (:func:`plan_rebalance`), and the cluster-wide counter
sums.  A backend supplies only what is genuinely its own —

* :class:`~repro.kv.cluster.KVCluster` — replica runtimes on a
  :class:`~repro.net.transport.Transport` in this process;
* :class:`~repro.serve.cluster.ProcessCluster` — one OS process per
  replica behind the control plane —

namely ``run_round``, crash/recover mechanics, and the handful of
delivery hooks listed on :class:`KVDriver`.  Stepping and draining come
from :class:`repro.driver.ClusterDriver`.

What a replica rebuilt by ``crash(lose_state=True)`` comes back holding
is the cluster's **recovery policy** (:data:`RECOVERY_POLICIES`):

* ``"repair"`` — no durability layer; the rebuilt replica restarts from
  bottom and anti-entropy repair rebuilds everything over the network
  (the pre-WAL behaviour, and the baseline the others are measured
  against);
* ``"wal"`` — every store writes a per-shard
  :class:`~repro.wal.ReplicaWal` of its encoded deltas; the rebuilt
  replica replays that log locally and repair covers only the
  divergence accrued while it was down (plus the log's torn tail);
* ``"wal+repair"`` — replay as above, then mark every δ-path suspect so
  the recovered replica immediately root-probes its co-owners to
  *verify* the replay instead of trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.driver import ClusterDriver
from repro.kv.ring import HashRing
from repro.kv.store import KVRoutingError, KVUpdate
from repro.obs.trace import RING_CHANGE
from repro.sync import StateBased, keyed_bp_rr, keyed_classic
from repro.sync.merkle import MerkleSync

#: Valid lose-state recovery policies (see the module docstring).
RECOVERY_POLICIES = ("repair", "wal", "wal+repair")

#: Inner protocols a store can run per shard, by the name experiments
#: and replica processes select them with.  Delta-based variants run
#: the per-object (keyed) algorithm, matching the paper's Retwis
#: deployment.
KV_ALGORITHMS = {
    "state-based": StateBased,
    "delta-based": keyed_classic,
    "delta-based-bp-rr": keyed_bp_rr,
    "merkle": MerkleSync,
}


def check_recovery(recovery: str) -> str:
    """``recovery`` if it names a policy; ``ValueError`` otherwise."""
    if recovery not in RECOVERY_POLICIES:
        raise ValueError(
            f"recovery must be one of {RECOVERY_POLICIES}, got {recovery!r}"
        )
    return recovery


class Unavailable(RuntimeError):
    """No live owner of the key's shard is reachable."""


class ShardCopy(NamedTuple):
    """One live replica's copy of a shard, as the transfer planner sees it.

    A copy is either hosted (the replica owns the shard) or retained (a
    handoff source from an earlier, still-settling rebalance keeps it in
    its fencing set).
    """

    has_content: bool
    #: Encoded size of the copy's state — one naive full-state transfer.
    #: 0 where the backend cannot size a remote copy (process clusters
    #: see root hashes only), which zeroes the report's baseline.
    nbytes: int = 0


_NO_COPY = ShardCopy(has_content=False)


@dataclass(frozen=True)
class RebalanceReport:
    """What one live membership change planned.

    The handoff protocol itself runs asynchronously over the following
    rounds (drive the cluster and :meth:`KVDriver.drain` judges
    completion); this report captures the *placement* consequence —
    which shards moved, who ships what to whom — plus the byte cost a
    naive scheme would have paid, for the handoff-vs-blanket comparison.

    Attributes:
        added: The joining replica (``None`` for a decommission).
        removed: The leaving replica (``None`` for an add).
        old_replicas: Ring membership before the change.
        new_replicas: Ring membership after it.
        n_shards: The ring's shard count (for ``moved_fraction``).
        moved_shards: Shards whose owner group changed.
        transfers: Planned handoffs ``(shard, source, gaining)``.
        unsourced: ``(shard, gaining)`` pairs with no live old owner to
            ship from — the shard starts *empty* at its new owners.
            The crashed old owners' WALs are left unfenced (see
            :meth:`KVDriver.decommission_replica`), so the content is
            recoverable by an operator, but nothing re-ships it
            automatically; a non-empty ``unsourced`` is a signal to
            recover owners first and rebalance again.
        naive_fullstate_bytes: What shipping a live state object from
            *every* live old owner to every gaining owner would cost
            (encoded bytes) — the blanket-transfer baseline the
            WAL-segment handoff is measured against.
    """

    added: Optional[int]
    removed: Optional[int]
    old_replicas: Tuple[int, ...]
    new_replicas: Tuple[int, ...]
    n_shards: int
    moved_shards: Tuple[int, ...]
    transfers: Tuple[Tuple[int, int, int], ...]
    unsourced: Tuple[Tuple[int, int], ...]
    naive_fullstate_bytes: int

    @property
    def moved_fraction(self) -> float:
        """Fraction of shards that changed owners (~replication/n)."""
        return len(self.moved_shards) / self.n_shards


def plan_rebalance(
    old_ring: HashRing,
    new_ring: HashRing,
    down: AbstractSet[int],
    holders: Mapping[int, Mapping[int, ShardCopy]],
    *,
    added: Optional[int] = None,
    removed: Optional[int] = None,
) -> RebalanceReport:
    """Who ships which moved shard to whom — a pure function.

    ``holders`` maps each live replica to the copies it holds of (at
    least) the moved shards, hosted or retained.
    """
    moved = tuple(old_ring.moved_shards(new_ring))
    transfers: List[Tuple[int, int, int]] = []
    unsourced: List[Tuple[int, int]] = []
    naive_bytes = 0
    for shard in moved:
        old_owners = old_ring.shard_owners(shard)
        new_owners = set(new_ring.shard_owners(shard))
        gaining = sorted(r for r in new_owners if r not in old_owners)
        if not gaining:
            continue
        live_old = [o for o in old_owners if o not in down]
        # A source from an *earlier* overlapping rebalance may still
        # hold the shard in its fencing set — possibly the only
        # replica with the content when its own segment never
        # shipped (the current ring's owner is still empty).
        retained = [
            node
            for node in sorted(holders)
            if node not in old_owners and shard in holders[node]
        ]
        live_losing = [o for o in live_old if o not in new_owners]
        remaining = [o for o in live_old if o in new_owners]
        # Preference order: the leaving owner (shipping is its exit
        # path and its segment carries novelty only it held), then a
        # retained earlier source, then an owner staying put — but a
        # candidate that actually holds content always beats an
        # empty one, whatever its category.
        ordered = live_losing + retained + remaining
        if not ordered:
            unsourced.extend((shard, g) for g in gaining)
            continue
        copies = {c: holders.get(c, {}).get(shard, _NO_COPY) for c in ordered}
        sources = [c for c in ordered if copies[c].has_content] or ordered
        # The baseline a naive transfer pays: every content-capable
        # old holder pushes its full state object to every gaining
        # owner.
        per_gaining = sum(copies[o].nbytes for o in (live_old or retained))
        for index, g in enumerate(gaining):
            transfers.append((shard, sources[index % len(sources)], g))
            naive_bytes += per_gaining
    return RebalanceReport(
        added=added,
        removed=removed,
        old_replicas=old_ring.replicas,
        new_replicas=new_ring.replicas,
        n_shards=new_ring.n_shards,
        moved_shards=moved,
        transfers=tuple(transfers),
        unsourced=tuple(unsourced),
        naive_fullstate_bytes=naive_bytes,
    )


class KVDriver(ClusterDriver):
    """The store-cluster surface shared by every backend.

    A backend sets ``ring``, ``down``, ``antientropy``, ``recovery`` and
    ``tracer``, implements ``run_round`` / ``apply_update`` /
    crash-recover-partition mechanics, and supplies these hooks:

    * ``_shard_tokens()`` — a ``(owner, shard) → token`` lookup whose
      tokens are equal exactly when two copies agree (state objects in
      process, root hashes over the control plane);
    * ``_read(owner, key)`` — the typed value one replica holds;
    * ``hosted_shards(replica)`` — how many shards a replica hosts;
    * ``_registry_snapshots()`` — every metrics-registry snapshot that
      counts toward the run (dead incarnations included);
    * ``_holders(shards)`` — the planner's view of who holds what;
    * ``_seat(node)`` — make ``node`` a live, reachable seat;
    * ``_apply_ring(ring, retain)`` / ``_begin_handoff(shard, source,
      gaining)`` — deliver a planned membership change.
    """

    # ------------------------------------------------------------------
    # Smart-client request routing.
    # ------------------------------------------------------------------

    def live_owners(self, key: Hashable) -> Tuple[int, ...]:
        """The key's owner group with crashed replicas filtered out."""
        return tuple(o for o in self.ring.owners(key) if o not in self.down)

    def _coordinator(self, key: Hashable) -> int:
        owners = self.live_owners(key)
        if not owners:
            raise Unavailable(
                f"all owners {self.ring.owners(key)} of key {key!r} are down"
            )
        return owners[0]

    def update(self, key: Hashable, op: str, *args):
        """Apply a typed write at the first live owner; return the δ.

        Under a WAL recovery policy an in-process owner returns on
        apply and the write is durable at its next tick; a replica
        process commits before it replies.
        """
        return self.apply_update(
            self._coordinator(key), KVUpdate(key, op, tuple(args))
        )

    def value(self, key: Hashable, *, read_replica: Optional[int] = None) -> Any:
        """Read the typed value of ``key`` from one replica.

        Args:
            key: The key to read.
            read_replica: Which owner answers.  ``None`` (default)
                routes like a smart client: the key's first *live*
                owner.  An explicit replica index must be a live owner
                of the key's shard — anything else raises
                :class:`~repro.kv.store.KVRoutingError` (not an owner)
                or :class:`Unavailable` (owner, but down).

        **Staleness contract.**  Every read is served from a single
        replica's local state with no quorum or read-repair, so it is
        *eventually consistent*: it reflects all writes that replica has
        locally applied — its own coordinated writes, plus whatever
        anti-entropy has delivered — and may miss writes coordinated
        elsewhere that are still in flight.  Under round-stepped
        execution a read taken between rounds is at most one
        synchronization interval stale on a healthy cluster, because
        every round settles to quiescence.  Under free-running
        execution (:class:`~repro.driver.FreeRun`) there is **no
        settling**: replicas sync on drifting timers and a read may
        trail a remote write by several intervals — the convergence-lag
        probe measures exactly this window.  Reads from different
        replicas (or the same replica across partitions/crashes) may
        disagree until anti-entropy converges; what never happens is a
        *rollback* — per replica, successive reads of a CRDT value only
        move up the lattice order.  Pin ``read_replica`` to observe one
        replica's monotone timeline; leave it ``None`` for availability.
        """
        if read_replica is None:
            return self._read(self._coordinator(key), key)
        owners = self.ring.owners(key)
        if read_replica not in owners:
            raise KVRoutingError(
                f"replica {read_replica} does not own key {key!r} "
                f"(owners: {list(owners)})"
            )
        if read_replica in self.down:
            raise Unavailable(f"read replica {read_replica} of key {key!r} is down")
        return self._read(read_replica, key)

    # ------------------------------------------------------------------
    # Per-shard convergence.
    # ------------------------------------------------------------------

    def shard_converged(self, shard: int, token=None) -> bool:
        """True when every live owner of ``shard`` agrees on it."""
        if token is None:
            token = self._shard_tokens()
        seen = [
            token(owner, shard)
            for owner in self.ring.shard_owners(shard)
            if owner not in self.down
        ]
        return all(other == seen[0] for other in seen[1:])

    def converged(self) -> bool:
        """Per-shard agreement across every replica group (live members)."""
        token = self._shard_tokens()
        return all(
            self.shard_converged(shard, token) for shard in range(self.ring.n_shards)
        )

    # ------------------------------------------------------------------
    # Cluster-wide counters.
    # ------------------------------------------------------------------

    def _prefix_totals(self, prefix: str) -> dict:
        totals: dict = {}
        for snapshot in self._registry_snapshots():
            for name, value in snapshot.items():
                if name.startswith(prefix):
                    key = name[len(prefix):]
                    totals[key] = totals.get(key, 0) + value
        return totals

    def scheduler_stats(self) -> dict:
        """Cluster-wide sums of every store's scheduler counters.

        Includes the repair-byte accounting (``repair_payload_bytes``,
        ``repair_metadata_bytes``, ``probes``, ``repairs``) that the
        repair-mode comparisons measure.  The per-replica registries
        survive ``crash(lose_state=True)`` rebuilds (in process) or are
        folded at kill time (process clusters), so the sums cover the
        whole run across store incarnations.
        """
        return self._prefix_totals("scheduler.")

    def wal_stats(self) -> dict:
        """Cluster-wide sums of the per-replica WAL counters.

        Empty under the ``"repair"`` policy (no logs exist).
        """
        return self._prefix_totals("wal.")

    # ------------------------------------------------------------------
    # Live membership changes: ring rebalancing with shard handoff.
    # ------------------------------------------------------------------

    def add_replica(self, node: int) -> RebalanceReport:
        """Bring ``node`` into the ring mid-run.

        Placement shifts minimally (:meth:`~repro.kv.ring.HashRing.
        with_replica`); for every moved shard an old owner ships the
        gaining replica a compacted WAL segment through the handoff
        protocol over the following rounds, while client traffic keeps
        flowing against the new ring.
        """
        new_ring = self.ring.with_replica(node)
        if node in self.down:
            raise ValueError(f"cannot add crashed node {node}; recover it first")
        self._seat(node)
        return self._rebalance(new_ring, added=node)

    def decommission_replica(self, node: int) -> RebalanceReport:
        """Retire ``node`` from the ring mid-run.

        The leaver sources one handoff per shard it held; once the
        gaining owners acknowledge, it fences and truncates its shard
        logs and ends empty (the seat itself stays and may be re-added
        later).

        Decommissioning a *crashed* replica is allowed — the dead-node
        removal every ring-based store needs — but it cannot source
        handoffs: surviving co-owners ship the moved shards instead,
        any shard with no live owner is reported ``unsourced`` (it
        starts empty at its new owners), and the dead node's WAL is
        deliberately left unfenced so an operator can still recover it
        and re-add it.  Prefer ``recover`` + decommission when the
        node's disk is intact.
        """
        return self._rebalance(self.ring.without_replica(node), removed=node)

    def _check_placement(self, new_ring: HashRing, moved: Sequence[int]) -> None:
        """Reject a placement the overlay cannot carry (full meshes can)."""

    def _rebalance(
        self,
        new_ring: HashRing,
        *,
        added: Optional[int] = None,
        removed: Optional[int] = None,
    ) -> RebalanceReport:
        """Swap the ring everywhere and plan the shard handoffs.

        Repair must be enabled: handoff covers the moved content, but
        the δ-buffers discarded when surviving owners rebuild their
        shard synchronizers — and any handoff abandoned to a crash —
        re-converge through the repair path, so a rebalance without one
        could silently strand novelty.
        """
        if self.antientropy.repair_interval < 1:
            raise ValueError(
                "live rebalancing requires repair: construct the cluster "
                "with AntiEntropyConfig(repair_interval >= 1) so handoff "
                "gaps (discarded δ-buffers, lost frames, crashes) are "
                "re-converged"
            )
        old_ring = self.ring
        moved = old_ring.moved_shards(new_ring)
        # Validate *before* any state changes: the ring is applied node
        # by node, and an error surfacing mid-loop would leave the
        # cluster half-rebalanced.
        self._check_placement(new_ring, moved)
        report = plan_rebalance(
            old_ring,
            new_ring,
            self.down,
            self._holders(moved),
            added=added,
            removed=removed,
        )
        # A source keeps serving a shard it no longer owns until the
        # gaining owner acknowledges; everyone else fences immediately.
        retain: Dict[int, Set[int]] = {}
        for shard, source, _ in report.transfers:
            if source not in new_ring.shard_owners(shard):
                retain.setdefault(source, set()).add(shard)
        self.ring = new_ring
        if self.tracer is not None:
            self.tracer.emit(
                RING_CHANGE,
                extra={
                    "added": added,
                    "removed": removed,
                    "moved_shards": len(moved),
                    "transfers": len(report.transfers),
                    "unsourced": len(report.unsourced),
                    "replicas": sorted(new_ring.replicas),
                },
            )
        self._apply_ring(new_ring, retain)
        for shard, source, gaining in report.transfers:
            self._begin_handoff(shard, source, gaining)
        return report

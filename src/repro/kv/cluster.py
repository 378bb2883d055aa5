"""The replicated store on the in-process cluster harness.

:class:`KVCluster` is the in-process backend of the store's cluster
driver (:class:`~repro.kv.driver.KVDriver`): every node of a
:class:`repro.sim.network.Cluster` runs a :class:`~repro.kv.store.
KVStore`, and this class supplies only what living in one process makes
particular — building the stores with WALs and metrics registries that
outlive rebuilds, WAL replay as the lose-state restore step, delivering
ring changes and handoff nominations by direct call, the overlay
reachability check, state-object comparison tokens, and the
convergence-lag probe.  Routing, per-shard convergence, the membership
flow and its transfer planner, the counter sums, and stepping/draining
are the shared driver's, identical on
:class:`~repro.serve.cluster.ProcessCluster`.

All of the base cluster's machinery applies unchanged: the pluggable
transport (deterministic event-driven simulation by default, real
localhost TCP sockets with ``transport="tcp"``), the
:class:`~repro.sim.metrics.MetricsCollector` byte/unit accounting,
message loss, and the fault-injection API
(:meth:`~repro.sim.network.Cluster.crash`, :meth:`partition`,
:meth:`heal`, :meth:`recover`).  Combined with the scheduler's repair
machinery — blanket full-state pushes on a timer, or divergence-driven
digest probes that ship only the missing join decomposition — this is
the partition/recovery harness: sever a replica group, keep writing on
both sides, heal, drain, and the group converges for any inner
synchronization protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Mapping, Optional, Sequence, Set, Union

from repro.codec import encode
from repro.driver import Deployment, Stepped
from repro.net.transport import Transport

from repro.kv.antientropy import AntiEntropyConfig
from repro.kv.driver import KVDriver, ShardCopy, check_recovery
from repro.kv.ring import HashRing
from repro.kv.store import kv_store_factory
from repro.lattice.base import Lattice
from repro.lattice.map_lattice import MapLattice
from repro.obs.lag import ConvergenceProbe
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import LAG
from repro.sim.network import Cluster, ClusterConfig, _normalize_trace
from repro.sim.topology import full_mesh
from repro.wal import ReplicaWal, Storage


class KVCluster(KVDriver, Cluster):
    """An in-process cluster of sharded store replicas.

    Args:
        ring: Placement of shards onto the cluster's node indices; its
            replica set must be a subset of the topology's nodes
            ``0..n-1`` (a proper subset leaves spare nodes to
            :meth:`add_replica` later, and is also the state a
            :meth:`decommission_replica` leaves behind).
        inner_factory: Synchronizer factory run per shard per owner
            (any entry of :data:`repro.sync.ALGORITHMS` or friends).
        antientropy: Scheduler knobs (budget, batching, repair).
        config: Full simulation config; its topology is the overlay
            connecting the replicas, and every replica group must be
            connected.  Defaults to a full mesh over ``0..max replica``,
            the common case for a store whose replica groups are
            ring-scattered.
        transport: The deployment (see :class:`~repro.sim.network.
            Cluster`): ``Stepped.SIM`` (default), ``Stepped.TCP``, a
            ``FreeRun``, their names ``"sim"``/``"tcp"``, or a
            constructed :class:`~repro.net.transport.Transport`.
        recovery: Lose-state recovery policy, one of
            :data:`~repro.kv.driver.RECOVERY_POLICIES`; the WAL policies
            give every store a durable per-shard delta log that survives
            rebuilds.
        wal_storage: ``replica index → Storage`` factory for the WAL
            backends (defaults to one in-memory store per replica, so
            the simulator stays deterministic and fast; inject
            :class:`~repro.wal.FileStorage` for real segment files).
        trace: Structured tracing (see :class:`~repro.sim.network.
            Cluster`); here the tracer additionally reaches the stores
            (repair escalations, handoff protocol), the WALs
            (commit/compact/replay), and the convergence-lag probe.
    """

    def __init__(
        self,
        ring: HashRing,
        inner_factory,
        *,
        antientropy: Optional[AntiEntropyConfig] = None,
        config: Optional[ClusterConfig] = None,
        transport: Union[Deployment, str, Transport] = Stepped.SIM,
        recovery: str = "repair",
        wal_storage: Optional[Callable[[int], Storage]] = None,
        trace=None,
    ) -> None:
        if config is None:
            # One node per index up to the highest ring member: rings
            # over a contiguous 0..n-1 get the historical mesh, rings
            # over a subset still get every member a seat.
            config = ClusterConfig(topology=full_mesh(max(ring.replicas) + 1))
        out_of_range = [r for r in ring.replicas if not 0 <= r < config.topology.n]
        if out_of_range:
            raise ValueError(
                "the ring must place shards on the topology's node indices "
                f"0..{config.topology.n - 1}, got out-of-range {out_of_range}"
            )
        if check_recovery(recovery) == "repair" and wal_storage is not None:
            # Silently accepting the storage would let a caller believe
            # their writes are durable while no log is ever created.
            raise ValueError(
                "wal_storage requires a WAL recovery policy "
                f"(recovery='wal' or 'wal+repair'), got recovery={recovery!r}"
            )
        self.ring = ring
        self.recovery = recovery
        self.antientropy = (
            antientropy if antientropy is not None else AntiEntropyConfig()
        )
        #: The durable log of each replica, keyed by index.  Created
        #: lazily by the factory and *never* dropped on a rebuild —
        #: the log surviving the crash is the whole point.
        self._wals: Dict[int, ReplicaWal] = {}
        self._wal_storage = wal_storage
        # Normalized *before* super().__init__: the store factory below
        # closes over the tracer, and the base constructor builds every
        # store.  Passing the built Tracer up keeps one shared instance.
        kv_tracer = _normalize_trace(trace)
        #: Per-replica metrics registries.  Like the WALs, these are
        #: keyed by index and *never* dropped on a rebuild — counters
        #: use get-or-create, so a store incarnation lost to
        #: ``crash(lose_state=True)`` leaves its counts behind and the
        #: rebuilt store keeps incrementing them.  This is what lets
        #: :meth:`scheduler_stats` sum whole-run traffic without any
        #: retired-counter bookkeeping.
        self._registries: Dict[int, MetricsRegistry] = {}
        #: Convergence-lag probe: open per-shard disagreement windows,
        #: measured in rounds (``None`` when tracing is off).
        self._lag_probe: Optional[ConvergenceProbe] = (
            ConvergenceProbe() if kv_tracer is not None else None
        )
        factory = kv_store_factory(
            # A provider, not the ring object: a store rebuilt after a
            # live rebalance must open on the *current* placement.
            lambda: self.ring,
            inner_factory,
            antientropy=antientropy,
            wal_provider=self._wal_for if recovery != "repair" else None,
            registry_provider=self._registry_for,
            tracer=kv_tracer,
        )
        super().__init__(
            config,
            factory,
            MapLattice(),
            transport=transport,
            trace=kv_tracer,
        )

    def _registry_for(self, replica: int) -> MetricsRegistry:
        if replica not in self._registries:
            self._registries[replica] = MetricsRegistry()
        return self._registries[replica]

    def _wal_for(self, replica: int) -> ReplicaWal:
        if replica not in self._wals:
            storage = (
                self._wal_storage(replica) if self._wal_storage is not None else None
            )
            self._wals[replica] = ReplicaWal(
                replica,
                storage=storage,
                registry=self._registry_for(replica),
                tracer=self.tracer,
            )
        return self._wals[replica]

    def _restore_for(self, node: int):
        """WAL recovery: replay the surviving log into the fresh store."""
        if node not in self._wals:
            return None
        verify = self.recovery == "wal+repair"
        # replay_wal enforces the group-commit crash boundary itself
        # (staged-but-uncommitted records are discarded).
        return lambda store: store.replay_wal(verify=verify)

    # ------------------------------------------------------------------
    # Membership hooks: ring changes are delivered by direct call.
    # ------------------------------------------------------------------

    def _seat(self, node: int) -> None:
        if not 0 <= node < self.topology.n:
            raise ValueError(
                f"no topology node {node} to add (nodes: 0..{self.topology.n - 1})"
            )

    def _check_placement(self, new_ring: HashRing, moved: Sequence[int]) -> None:
        # Only moved shards need checking — unmoved groups were valid
        # under the old ring and neighbourhoods don't change.
        for shard in moved:
            group = new_ring.shard_owners(shard)
            for member in group:
                reachable = set(self.topology.neighbors(member)) | {member}
                missing = [peer for peer in group if peer not in reachable]
                if missing:
                    raise ValueError(
                        f"rebalance would place shard {shard} on group "
                        f"{group}, but replica {member} cannot reach "
                        f"{missing}; the topology must connect every "
                        "replica group"
                    )

    def _holders(self, shards: Sequence[int]) -> Dict[int, Dict[int, ShardCopy]]:
        held: Dict[int, Dict[int, ShardCopy]] = {}
        for node, store in enumerate(self.nodes):
            if node in self.down:
                continue
            copies = store.copies()
            held[node] = {
                shard: ShardCopy(
                    not copies[shard].state.is_bottom, len(encode(copies[shard].state))
                )
                for shard in shards
                if shard in copies
            }
        return held

    def _apply_ring(self, ring: HashRing, retain: Mapping[int, Set[int]]) -> None:
        for node in range(self.topology.n):
            self.runtimes[node].apply_ring(
                ring,
                retain=frozenset(retain.get(node, ())),
                # A crashed replica may hold the only durable copy of a
                # shard no live owner can source (``unsourced``):
                # reshape it, but leave its logs untouched so an
                # operator can still recover the node and re-add it.
                fence=node not in self.down,
            )

    def _begin_handoff(self, shard: int, source: int, gaining: int) -> None:
        self.nodes[source].handoff.begin(shard, gaining)

    def pending_handoffs(self) -> int:
        """Handoffs still in flight at live replicas.

        Down replicas are excluded: they cannot make progress until
        recovered, and their queues resume then.
        """
        return sum(
            node.handoff.pending()
            for index, node in enumerate(self.nodes)
            if index not in self.down
        )

    def hosted_shards(self, replica: int) -> int:
        """How many shards ``replica`` currently hosts."""
        return len(self.nodes[replica].shards)

    def run_round(self, updates=None) -> None:
        super().run_round(updates)
        if self._lag_probe is not None:
            self._sample_lag()

    def _sample_lag(self) -> None:
        """Feed per-shard root-hash agreement into the lag probe.

        Agreement is judged the same way digest repair's cheapest rung
        does — equal Merkle roots over the shard's irreducible digest —
        so a ``lag`` event of *n* rounds means digest probes would have
        seen divergence for exactly that window.  Runs only when
        tracing is on; roots come from each store's incremental digest
        cache, so a quiescent shard costs one identity check per owner
        per round instead of a full decomposition.
        """
        nodes = self.nodes
        agreement = {
            shard: self.shard_converged(
                shard, lambda owner, owned: nodes[owner].shard_root(owned)
            )
            for shard in range(self.ring.n_shards)
        }
        round_index = self.rounds_run - 1
        for shard, lag in self._lag_probe.observe(round_index, agreement):
            self.tracer.emit(
                LAG, round=round_index, shard=shard, extra={"rounds": lag}
            )

    # ------------------------------------------------------------------
    # Driver hooks: reads, comparison tokens, registries.
    # ------------------------------------------------------------------

    def remove(self, key: Hashable) -> Lattice:
        """Remove ``key`` at the first live owner (observed-remove types)."""
        return self.nodes[self._coordinator(key)].remove(key)

    def _read(self, owner: int, key: Hashable):
        return self.nodes[owner].get(key)

    def _shard_tokens(self):
        # State objects, not root hashes: comparing what the owners
        # already hold costs no digest refresh.
        nodes = self.nodes
        return lambda owner, shard: nodes[owner].shards[shard].state

    def _registry_snapshots(self):
        # The registries — like the WALs, whose ``wal.*`` counters they
        # hold — survive ``crash(lose_state=True)`` rebuilds, so the
        # sums need no retired-counter bookkeeping.
        return [registry.snapshot() for registry in self._registries.values()]

    def merged_keyspace(self) -> MapLattice:
        """The join of every live replica's keyspace — the global view."""
        merged = MapLattice()
        for index, node in enumerate(self.nodes):
            if index not in self.down:
                merged = merged.join(node.state)
        return merged

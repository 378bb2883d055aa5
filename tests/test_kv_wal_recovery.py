"""WAL-backed crash recovery: local replay first, repair the remainder.

``crash(lose_state=True)`` under a WAL recovery policy rebuilds the
replica from its own per-shard log instead of re-shipping its keyspace
over the network.  These tests pin the policy ladder down:

* every inner protocol converges after the fault schedule under both
  WAL policies, with the replayed bookkeeping staying truthful
  (the content flows through ``absorb_state``);
* the WAL run spends strictly fewer repair payload bytes than the
  bottom-restart digest baseline on the identical seeded schedule —
  the measurable claim the recovery experiment makes;
* the durability boundary is honest: records staged after the last
  group commit are lost at the crash and digest repair covers exactly
  that remainder;
* ``wal+repair`` verifies the replay — the recovered replica itself
  probes every δ-path instead of waiting for peer suspicion;
* the log survives on real files (``FileStorage``) and across the TCP
  transport, not just in the simulator's memory backend.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.driver import Stepped
from repro.experiments.kv_sweep import KVConfig, run_kv_repair_cell
from repro.kv import (
    AntiEntropyConfig,
    HashRing,
    KVCluster,
    KVStore,
    KV_ALGORITHMS,
    RECOVERY_POLICIES,
)
from repro.kv.shard import _keyspace_novelty
from repro.sync.digest import digest_of, root_of
from repro.sync import MerkleSync, Scuttlebutt, StateBased, keyed_bp_rr, keyed_classic
from repro.wal import FileStorage

INNER = {
    "state-based": StateBased,
    "delta-based": keyed_classic,
    "delta-based-bp-rr": keyed_bp_rr,
    "scuttlebutt": Scuttlebutt,
    "merkle": MerkleSync,
}

DIGEST_REPAIR = AntiEntropyConfig(
    repair_interval=2, repair_fanout=8, repair_mode="digest"
)


def build_cluster(inner=keyed_bp_rr, recovery="wal", **kwargs):
    ring = HashRing(range(4), n_shards=8, replication=3)
    return KVCluster(
        ring, inner, antientropy=DIGEST_REPAIR, recovery=recovery, **kwargs
    )


def run_fault_schedule(cluster, victim=3):
    """Writes, settle, crash with disk loss, divergence, recover, drain."""
    for i in range(12):
        cluster.update(f"aws:{i}", "add", f"e{i}")
    cluster.run_round(updates=None)
    cluster.drain()
    cluster.crash(victim, lose_state=True)
    cluster.update("aws:0", "add", "while-down")
    cluster.run_round(updates=None)
    cluster.recover(victim)
    cluster.drain()


class TestWalRecoveryConverges:
    @pytest.mark.parametrize("recovery", ["wal", "wal+repair"])
    @pytest.mark.parametrize("algorithm", sorted(INNER))
    def test_every_inner_protocol_recovers_from_its_log(self, algorithm, recovery):
        cluster = build_cluster(INNER[algorithm], recovery=recovery)
        run_fault_schedule(cluster)
        assert cluster.converged(), f"{algorithm}/{recovery} diverged"
        assert cluster.value("aws:0") >= {"e0", "while-down"}
        for i in range(1, 12):
            assert cluster.value(f"aws:{i}") == frozenset({f"e{i}"})
        stats = cluster.wal_stats()
        assert stats["wal_replays"] > 0
        assert stats["wal_replayed_bytes"] > 0

    def test_replay_restores_state_before_any_network_round(self):
        """The rebuilt store holds its committed keyspace immediately —
        the local-replay-first half of the recovery argument."""
        cluster = build_cluster()
        for i in range(12):
            cluster.update(f"aws:{i}", "add", f"e{i}")
        cluster.run_round(updates=None)
        cluster.drain()
        survivor_view = {
            shard: cluster.nodes[3].shards[shard].state
            for shard in cluster.nodes[3].shards
        }
        cluster.crash(3, lose_state=True)
        rebuilt = cluster.nodes[3]
        assert isinstance(rebuilt, KVStore)
        # No round has run since the rebuild: anything it holds came
        # from the log.  The torn tail (records staged after the last
        # commit) may be missing; everything committed must be back.
        for shard, sync in rebuilt.shards.items():
            assert sync.state.leq(survivor_view[shard])
        assert any(not sync.state.is_bottom for sync in rebuilt.shards.values())

    def test_repair_policy_still_rebuilds_from_bottom(self):
        cluster = build_cluster(recovery="repair")
        for i in range(12):
            cluster.update(f"aws:{i}", "add", f"e{i}")
        cluster.run_round(updates=None)
        cluster.drain()
        cluster.crash(3, lose_state=True)
        rebuilt = cluster.nodes[3]
        assert all(sync.state.is_bottom for sync in rebuilt.shards.values())
        assert cluster.wal_stats() == {}

    def test_recovery_policy_is_validated(self):
        with pytest.raises(ValueError, match="recovery"):
            build_cluster(recovery="hope")
        assert set(RECOVERY_POLICIES) == {"repair", "wal", "wal+repair"}

    def test_wal_knobs_without_a_wal_policy_are_rejected(self):
        """Silently ignoring the storage would fake durability."""
        from repro.wal import MemoryStorage

        with pytest.raises(ValueError, match="wal_storage"):
            build_cluster(
                recovery="repair", wal_storage=lambda replica: MemoryStorage()
            )


class TestWalBeatsRemoteRepair:
    def run_policy(self, recovery):
        cluster = build_cluster(recovery=recovery)
        run_fault_schedule(cluster)
        assert cluster.converged()
        return cluster.scheduler_stats()

    def test_wal_replay_cuts_repair_payload(self):
        baseline = self.run_policy("repair")
        replayed = self.run_policy("wal")
        assert 0 < replayed["repair_payload_bytes"] < baseline["repair_payload_bytes"]

    def test_verified_replay_probes_from_the_recovered_side(self):
        trusted = self.run_policy("wal")
        verified = self.run_policy("wal+repair")
        # Suspicion on every δ-path makes the rebuilt replica probe its
        # co-owners itself, on top of the peers' own suspicion probes.
        assert verified["probes"] > trusted["probes"]


class TestDurabilityBoundary:
    def test_records_staged_after_the_last_tick_are_lost(self):
        """Group commit persists at ticks; a write landing after the
        victim's last tick is gone from the log — and digest repair,
        not the replay, brings it back."""
        cluster = build_cluster()
        cluster.update("aws:0", "add", "committed")
        cluster.run_round(updates=None)
        cluster.drain()
        # This write reaches the owners' stores (and WAL staging) but no
        # tick ever commits it before the crash.
        cluster.update("aws:1", "add", "staged-only")
        victims = cluster.ring.owners("aws:1")
        for victim in victims:
            cluster.crash(victim, lose_state=True)
        for victim in victims:
            rebuilt = cluster.nodes[victim]
            assert isinstance(rebuilt, KVStore)
            assert rebuilt.get("aws:1") == frozenset()
        discarded = cluster.wal_stats()["wal_discarded_records"]
        assert discarded > 0
        for victim in victims:
            cluster.recover(victim)
        cluster.drain()
        assert cluster.converged()
        # All owners lost it, so the write is genuinely gone — the
        # documented price of group commit, visible and bounded.
        assert cluster.value("aws:1") == frozenset()
        assert cluster.value("aws:0") == frozenset({"committed"})

    def test_replay_wal_itself_enforces_the_crash_boundary(self):
        """The discard of staged-but-uncommitted records lives in the
        recovery API, not in one particular caller."""
        from repro.kv import kv_store_factory
        from repro.lattice import MapLattice
        from repro.wal import ReplicaWal

        ring = HashRing(range(2), n_shards=2, replication=2)
        wal = ReplicaWal(0)
        factory = kv_store_factory(
            ring, keyed_bp_rr, antientropy=DIGEST_REPAIR, wal_provider=lambda r: wal
        )
        dead = factory(replica=0, neighbors=[1], bottom=MapLattice(), n_nodes=2)
        dead.update("set:a", "add", "durable")
        dead.sync_messages()  # tick: group commit
        dead.update("set:a", "add", "staged-only")
        assert wal.log(ring.shard_of("set:a")).staged_records == 1

        fresh = factory(replica=0, neighbors=[1], bottom=MapLattice(), n_nodes=2)
        assert fresh.replay_wal() == 1
        assert wal.log(ring.shard_of("set:a")).staged_records == 0
        assert fresh.get("set:a") == frozenset({"durable"})

    def test_rebuild_reattaches_the_same_log(self):
        cluster = build_cluster()
        cluster.update("aws:0", "add", "first-life")
        cluster.run_round(updates=None)
        wal_before = cluster.nodes[0].wal
        cluster.crash(0, lose_state=True)
        cluster.recover(0)
        assert cluster.nodes[0].wal is wal_before
        cluster.update("aws:0", "add", "second-life")
        cluster.run_round(updates=None)
        cluster.drain()
        cluster.crash(0, lose_state=True)
        cluster.recover(0)
        cluster.drain()
        assert cluster.converged()
        assert cluster.value("aws:0") >= {"first-life", "second-life"}

    def test_replayed_paths_warm_the_scheduler_at_recover(self):
        """restore_clock marks replayed δ-paths active *after* the tick
        jump, so a good replay is not instantly re-probed as cold."""
        cluster = build_cluster()
        for i in range(12):
            cluster.update(f"aws:{i}", "add", f"e{i}")
        cluster.run_round(updates=None)
        cluster.drain()
        cluster.crash(3, lose_state=True)
        rebuilt = cluster.nodes[3]
        assert rebuilt._replayed_paths  # recorded at replay time
        cluster.run_round(updates=None)
        cluster.recover(3)
        assert rebuilt._replayed_paths == ()  # consumed by restore_clock
        round_now = cluster.rounds_run
        assert rebuilt.scheduler.tick == round_now
        assert rebuilt.repair._last_delta
        assert all(
            tick == round_now for tick in rebuilt.repair._last_delta.values()
        )


class TestFileBackedAndTcp:
    def test_file_storage_backs_a_cluster_run(self, tmp_path):
        cluster = build_cluster(
            wal_storage=lambda replica: FileStorage(str(tmp_path / f"r{replica}"))
        )
        run_fault_schedule(cluster)
        assert cluster.converged()
        # Real segment files exist for the victim and survived the crash.
        victim_logs = FileStorage(str(tmp_path / "r3")).names()
        assert victim_logs
        assert all(name.endswith(".wal") for name in victim_logs)

    def test_wal_recovery_over_tcp_beats_the_digest_baseline(self):
        # Keyspace sized so the rebuild savings dominate the (small)
        # cost of re-propagating writes the replay *resurrects* — see
        # TestWalResurrectsLostWrites for that effect in isolation.
        config = KVConfig(
            replicas=6,
            keys=120,
            rounds=6,
            ops_per_node=3,
            shards=12,
            replication=2,
            repair_interval=2,
            repair_fanout=8,
            deployment=Stepped.TCP,
        )
        workload = config.make_workload(config.ring())
        digest = run_kv_repair_cell(config, "delta-based-bp-rr", "digest", workload)
        wal = run_kv_repair_cell(config, "delta-based-bp-rr", "wal", workload)
        assert digest.converged and wal.converged
        assert wal.wal_replayed_bytes > 0
        assert wal.repair_payload_bytes < digest.repair_payload_bytes

    def test_unknown_strategy_label_is_rejected(self):
        config = KVConfig(repair_interval=2)
        with pytest.raises(ValueError, match="recovery strategy"):
            run_kv_repair_cell(config, "delta-based-bp-rr", "psychic")


class TestWalResurrectsLostWrites:
    """Replay restores *committed* writes remote repair cannot.

    A write that reached only the crash victim — acknowledged, WAL-
    committed, but never delivered to any co-owner (refused across a
    partition, or single-owner placement) — is simply gone under the
    ``repair`` policy: no surviving replica can re-ship what none of
    them ever held.  The WAL policies replay it from the victim's own
    log, and the normal anti-entropy machinery then propagates the
    resurrected content outward.  (This is why a WAL cell can report a
    few *extra* repair bytes on small keyspaces: it is shipping data
    the baseline silently lost.)
    """

    def test_single_owner_shard_survives_disk_loss_only_with_wal(self):
        def run(recovery):
            ring = HashRing(range(2), n_shards=4, replication=1)
            cluster = KVCluster(
                ring, keyed_bp_rr, antientropy=DIGEST_REPAIR, recovery=recovery
            )
            cluster.update("set:solo", "add", "precious")
            cluster.run_round(updates=None)  # the tick group-commits
            victim = cluster.ring.owners("set:solo")[0]
            cluster.crash(victim, lose_state=True)
            cluster.recover(victim)
            cluster.drain()
            return cluster.value("set:solo")

        assert run("repair") == frozenset()  # unrecoverable: rf=1, disk gone
        assert run("wal") == frozenset({"precious"})

    def test_partition_era_write_survives_heal_then_crash(self):
        """heal → crash with no round in between: the victim is the only
        replica holding its partition-era coordinated writes."""

        def run(recovery):
            ring = HashRing(range(4), n_shards=8, replication=2)
            cluster = KVCluster(
                ring, keyed_bp_rr, antientropy=DIGEST_REPAIR, recovery=recovery
            )
            victim = 3
            # A key the victim coordinates; isolating the victim puts
            # every co-owner across the cut, so the partition-era flush
            # is refused.
            key = next(
                f"set:k{i}"
                for i in range(200)
                if cluster.ring.owners(f"set:k{i}")[0] == victim
            )
            cluster.run_round(updates=None)
            cluster.partition([victim])
            cluster.update(key, "add", "partition-era")
            cluster.run_round(updates=None)  # tick: commit locally, flush refused
            cluster.heal()
            cluster.crash(victim, lose_state=True)
            cluster.recover(victim)
            cluster.drain()
            assert cluster.converged()
            return cluster.value(key)

        assert run("repair") == frozenset()  # no survivor ever held it
        assert run("wal") == frozenset({"partition-era"})
        assert run("wal+repair") == frozenset({"partition-era"})


class TestEveryInflationReachesTheLog:
    """The structural invariant of :class:`repro.kv.Shard`: whatever
    path content takes into a shard — a typed write, a remove, a peer's
    sync message, a digest-repair delta, a client-pushed fragment, a
    handoff segment — after the next group commit the shard's log
    replays to exactly the shard's state, and the cached root is the
    root of that state."""

    KEYS = ("aws:a", "aws:b", "gct:c", "set:d")
    N_SHARDS = 4

    replicas = st.sampled_from((0, 1))
    ops = st.lists(
        st.one_of(
            st.tuples(st.just("write"), replicas, st.sampled_from(KEYS),
                      st.sampled_from("xyz")),
            st.tuples(st.just("remove"), replicas, st.sampled_from(KEYS[:2])),
            st.tuples(st.just("tick"), replicas),
            st.tuples(st.just("deliver"), replicas),
            st.tuples(st.just("drop"), replicas),
            st.tuples(st.just("client"), replicas, st.sampled_from(KEYS)),
            st.tuples(st.just("handoff"), replicas, st.integers(0, N_SHARDS - 1)),
        ),
        max_size=40,
    )

    def pair(self, algorithm):
        from repro.lattice import MapLattice
        from repro.wal import MemoryStorage, ReplicaWal

        ring = HashRing(range(2), n_shards=self.N_SHARDS, replication=2)
        return [
            KVStore(
                replica=replica,
                neighbors=(1 - replica,),
                bottom=MapLattice(),
                n_nodes=2,
                ring=ring,
                inner_factory=KV_ALGORITHMS[algorithm],
                antientropy=AntiEntropyConfig(
                    repair_interval=1, repair_fanout=8, repair_mode="digest"
                ),
                wal=ReplicaWal(replica, MemoryStorage()),
            )
            for replica in range(2)
        ]

    @staticmethod
    def check(store):
        store.wal.commit()
        for shard, copy in store.shards.items():
            logged = store.wal.replay(shard)
            if copy.state.is_bottom:
                assert logged is None or logged.is_bottom
            else:
                assert logged == copy.state, (store.replica, shard)
            assert store.shard_root(shard) == root_of(digest_of(copy.state))

    @pytest.mark.parametrize("algorithm", sorted(KV_ALGORITHMS))
    @settings(max_examples=25, deadline=None)
    @given(ops=ops)
    def test_log_replays_to_state_under_any_interleaving(self, algorithm, ops):
        from repro.lattice import MapLattice

        stores = self.pair(algorithm)
        mail = {0: [], 1: []}  # destination → messages in flight

        def tick(replica):
            for send in stores[replica].sync_messages():
                mail[send.dst].append(send.message)

        def deliver(replica):
            pending, mail[replica] = mail[replica], []
            for message in pending:
                for reply in stores[replica].handle_message(1 - replica, message):
                    mail[reply.dst].append(reply.message)

        for op, replica, *args in ops:
            store = stores[replica]
            if op == "write":
                key, element = args
                if key.startswith("gct:"):
                    store.update(key, "increment")
                else:
                    store.update(key, "add", element)
            elif op == "remove":
                store.remove(args[0])
            elif op == "tick":
                tick(replica)
                self.check(store)
            elif op == "deliver":
                deliver(replica)
            elif op == "drop":
                mail[replica].clear()  # lost frames: repair's reason to exist
            elif op == "client":
                value = stores[1 - replica].value_lattice(args[0])
                if value is not None:
                    store.absorb_client_state(MapLattice({args[0]: value}))
            else:
                store.handoff.begin(args[0], 1 - replica)
        # Epilogue: one write whose sync frame is lost, then every
        # shard is handed 0 → 1 and the pair runs until quiet, so each
        # example also covers the offer → segment → ack and the probe →
        # diff → repair exchanges end to end.
        stores[0].update("set:d", "add", "lost-in-flight")
        tick(0)
        mail[1].clear()
        for shard in range(self.N_SHARDS):
            stores[0].handoff.begin(shard, 1)
        for _ in range(12):
            for replica in (0, 1):
                tick(replica)
                deliver(1 - replica)
                deliver(replica)
        for store in stores:
            self.check(store)
            assert store.handoff.pending() == 0
        assert stores[0].state == stores[1].state


class TestKeyspaceNovelty:
    """The WAL's per-message diff exploits join's structure sharing."""

    def test_novelty_is_the_optimal_keyed_delta(self):
        from repro.lattice import MapLattice, SetLattice

        before = MapLattice({"a": SetLattice({"x"}), "b": SetLattice({"y"})})
        after = before.join(
            MapLattice({"b": SetLattice({"y", "z"}), "c": SetLattice({"w"})})
        )
        novelty = _keyspace_novelty(before, after)
        assert novelty == MapLattice(
            {"b": SetLattice({"z"}), "c": SetLattice({"w"})}
        )

    def test_redundant_delivery_yields_bottom(self):
        from repro.lattice import MapLattice, SetLattice

        before = MapLattice({"a": SetLattice({"x"})})
        assert _keyspace_novelty(before, before).is_bottom
        # A join that allocated a new object but taught nothing.
        after = before.join(MapLattice({"a": SetLattice({"x"})}))
        assert _keyspace_novelty(before, after).is_bottom

    def test_unchanged_keys_are_skipped_by_identity(self):
        from repro.lattice import MapLattice, SetLattice

        class Tripwire(SetLattice):
            def delta(self, other):  # pragma: no cover - must not run
                raise AssertionError("diffed an untouched key")

        before = MapLattice({"quiet": Tripwire({"x"})})
        after = before.join(MapLattice({"loud": SetLattice({"y"})}))
        novelty = _keyspace_novelty(before, after)
        assert set(novelty.entries) == {"loud"}


class TestSchedulerRebuildSupport:
    @staticmethod
    def store():
        from repro.lattice import MapLattice

        return KVStore(
            replica=0,
            neighbors=(1, 2),
            bottom=MapLattice(),
            n_nodes=3,
            ring=HashRing(range(3), n_shards=8, replication=2),
            inner_factory=keyed_bp_rr,
            antientropy=DIGEST_REPAIR,
        )

    def test_reverse_index_maps_peers_to_shared_shards(self):
        store = self.store()
        shared = {
            peer: tuple(s for s in sorted(store.shards) if peer in store.shards[s].neighbors)
            for peer in (1, 2)
        }
        assert shared[1] and shared[2]
        assert store.repair._peer_shards == shared
        store.note_send_blocked(2)
        assert store.repair._suspect == {(shard, 2) for shard in shared[2]}
        # A peer sharing nothing marks nothing.
        store.note_send_blocked(9)
        assert store.repair._suspect == {(shard, 2) for shard in shared[2]}

    def test_suspect_all_paths_covers_every_delta_path(self):
        store = self.store()
        store.repair.suspect_all_paths()
        assert store.repair._suspect == {
            (shard, peer)
            for shard, copy in store.shards.items()
            for peer in copy.neighbors
        }


class TestRuntimeRestoreHook:
    def test_replace_applies_restore_before_going_live(self):
        from repro.lattice import MapLattice, SetLattice
        from repro.net.runtime import ReplicaRuntime

        first = StateBased(0, [1], MapLattice(), 2)
        runtime = ReplicaRuntime(first)
        fresh = StateBased(0, [1], MapLattice(), 2)
        seen = []

        def restore(synchronizer):
            seen.append(synchronizer)
            synchronizer.absorb_state(MapLattice({"k": SetLattice({"v"})}))

        runtime.replace(fresh, restore=restore)
        assert seen == [fresh]
        assert runtime.synchronizer is fresh
        assert fresh.state == MapLattice({"k": SetLattice({"v"})})

    def test_replace_still_validates_identity(self):
        from repro.lattice import MapLattice
        from repro.net.runtime import ReplicaRuntime

        runtime = ReplicaRuntime(StateBased(0, [1], MapLattice(), 2))
        with pytest.raises(ValueError, match="replica"):
            runtime.replace(StateBased(1, [0], MapLattice(), 2))

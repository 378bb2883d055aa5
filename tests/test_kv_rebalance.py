"""Live ring rebalancing: WAL-segment shard handoff while traffic flows.

Covers the membership-change machinery end to end:

* cluster level — mid-run ``add_replica`` / ``decommission_replica``
  converge with client traffic flowing, for WAL-backed and log-less
  recovery policies (the same flow over TCP sockets and replica
  processes is ``tests/test_cluster_contract.py``);
* the handoff protocol — offers, segments, completion acks, the
  root-match short-circuit, retry under message loss, and pacing under
  a send budget;
* fencing — a decommissioned replica's logs are truncated and sealed,
  so a later re-add starts from the handoff, not from stale history;
* scheduler units — membership migration preserves δ-path clocks, and
  the handoff queue walks offer → segment → done with retries;
* store units — in-flight traffic for a shard the ring moved away is
  tolerated (counted), while traffic for a shard the ring *does* place
  here still fails loudly.
"""

import random

import pytest

from repro.kv import (
    AntiEntropyConfig,
    HashRing,
    KVCluster,
    KVRoutingError,
    KVStore,
    KVUpdate,
)
from repro.lattice.map_lattice import MapLattice
from repro.sim.network import ClusterConfig
from repro.sim.topology import full_mesh
from repro.sync import StateBased, Scuttlebutt, keyed_bp_rr
from repro.sync.protocol import Message
from repro.wal import MemoryStorage, ShardLog, WalFencedError
from repro.lattice.set_lattice import SetLattice
from repro.codec import encode
from repro.kv.handoff import HANDOFF_RETRY_TICKS, _ack_message, _offer_message


REPAIR = AntiEntropyConfig(
    repair_interval=3, repair_fanout=8, repair_mode="digest"
)


def make_store(replica=0, n=3, *, ring_nodes=None, shards=8, replication=2,
               antientropy=REPAIR, inner_factory=keyed_bp_rr):
    """One standalone store on an ``n``-node full mesh."""
    ring = HashRing(
        ring_nodes if ring_nodes is not None else range(n),
        n_shards=shards,
        replication=replication,
    )
    return KVStore(
        replica=replica,
        neighbors=tuple(r for r in range(n) if r != replica),
        bottom=MapLattice(),
        n_nodes=n,
        ring=ring,
        inner_factory=inner_factory,
        antientropy=antientropy,
    )


def batch(*entries):
    """The wire frame carrying ``(shard, inner message)`` entries."""
    return Message(
        kind="kv-batch",
        payload=entries,
        payload_units=0,
        payload_bytes=0,
        metadata_bytes=0,
        metadata_units=0,
    )


def only_reply(sends):
    """The single inner message a store answered with."""
    ((_, reply),) = sends[0].message.payload
    assert len(sends) == 1
    return reply


def make_cluster(n_topology, n_ring, *, recovery="wal",
                 antientropy=REPAIR, replication=2, shards=16, loss_rate=0.0):
    ring = HashRing(range(n_ring), n_shards=shards, replication=replication)
    return KVCluster(
        ring,
        keyed_bp_rr,
        config=ClusterConfig(topology=full_mesh(n_topology), loss_rate=loss_rate),
        antientropy=antientropy,
        recovery=recovery,
    )


def pump(cluster, rounds, seed=0, keys=24, writes=12):
    """Client traffic routed by the *current* ring, one batch per round."""
    rng = random.Random(seed)
    for r in range(rounds):
        for i in range(writes):
            cluster.update(f"set:{rng.randrange(keys)}", "add", f"e{seed}-{r}-{i}")
        cluster.run_round(updates=None)


def expected_union(seeds_rounds, keys=24, writes=12):
    """Replay the pump schedule to the per-key ground truth."""
    union = {}
    for seed, rounds_range in seeds_rounds:
        rng = random.Random(seed)
        for r in rounds_range:
            for i in range(writes):
                key = f"set:{rng.randrange(keys)}"
                union.setdefault(key, set()).add(f"e{seed}-{r}-{i}")
    return union


class TestLiveAdd:
    def test_add_converges_with_traffic_flowing(self):
        cluster = make_cluster(5, 4)
        pump(cluster, 3, seed=1)
        report = cluster.add_replica(4)
        assert report.added == 4 and report.removed is None
        assert report.new_replicas == (0, 1, 2, 3, 4)
        assert len(report.moved_shards) > 0
        pump(cluster, 4, seed=2)
        cluster.drain()
        assert cluster.converged()
        assert cluster.pending_handoffs() == 0
        # The joiner actually owns (and serves) shards now.
        assert cluster.nodes[4].shards
        for key, want in expected_union(
            [(1, range(3)), (2, range(4))]
        ).items():
            assert cluster.value(key) == want

    def test_handoff_undercuts_the_naive_fullstate_baseline(self):
        cluster = make_cluster(6, 5, replication=3)
        pump(cluster, 4, seed=3, writes=20)
        report = cluster.add_replica(5)
        pump(cluster, 4, seed=4)
        cluster.drain()
        assert cluster.converged()
        stats = cluster.scheduler_stats()
        assert stats["handoffs_completed"] >= len(report.transfers)
        assert 0 < stats["handoff_payload_bytes"] < report.naive_fullstate_bytes

    def test_add_rejects_bad_nodes(self):
        cluster = make_cluster(5, 4)
        with pytest.raises(ValueError, match="no topology node 9"):
            cluster.add_replica(9)
        with pytest.raises(ValueError, match="already a member"):
            cluster.add_replica(2)
        cluster.crash(4)
        with pytest.raises(ValueError, match="crashed node 4"):
            cluster.add_replica(4)

    def test_rebalance_requires_repair(self):
        cluster = make_cluster(5, 4, antientropy=AntiEntropyConfig())
        with pytest.raises(ValueError, match="requires repair"):
            cluster.add_replica(4)

    @pytest.mark.parametrize("inner", [StateBased, Scuttlebutt], ids=["state", "scuttlebutt"])
    def test_other_inner_protocols_rebalance_too(self, inner):
        ring = HashRing(range(4), n_shards=8, replication=2)
        cluster = KVCluster(
            ring,
            inner,
            config=ClusterConfig(topology=full_mesh(5)),
            antientropy=REPAIR,
        )
        pump(cluster, 2, seed=5)
        cluster.add_replica(4)
        pump(cluster, 3, seed=6)
        cluster.drain()
        assert cluster.converged()


class TestLiveDecommission:
    def test_decommission_converges_and_leaver_ends_empty(self):
        cluster = make_cluster(5, 5)
        pump(cluster, 3, seed=7)
        report = cluster.decommission_replica(0)
        assert report.removed == 0
        assert 0 not in cluster.ring.replicas
        pump(cluster, 4, seed=8)
        cluster.drain()
        assert cluster.converged()
        assert not cluster.nodes[0].shards
        assert not cluster.nodes[0].handoff.retained
        for key, want in expected_union([(7, range(3)), (8, range(4))]).items():
            assert cluster.value(key) == want

    def test_leaver_wal_is_fenced_and_truncated(self):
        cluster = make_cluster(4, 4)
        pump(cluster, 3, seed=9)
        owned_before = set(cluster.nodes[0].shards)
        assert owned_before
        cluster.decommission_replica(0)
        pump(cluster, 3, seed=10)
        cluster.drain()
        wal = cluster._wals[0]
        for shard in owned_before:
            log = wal.log(shard)
            assert log.fenced
            assert log.size_bytes() == 0
            with pytest.raises(WalFencedError):
                log.stage(SetLattice({"stale"}))
        assert cluster.wal_stats()["wal_fences"] >= len(owned_before)

    def test_readd_after_decommission_cannot_resurrect_stale_state(self):
        """The fencing rule: the re-added node regains shards through
        the handoff, and its pre-decommission log never replays."""
        cluster = make_cluster(5, 5)
        pump(cluster, 3, seed=11)
        cluster.decommission_replica(4)
        pump(cluster, 3, seed=12)
        cluster.drain()
        report = cluster.add_replica(4)
        pump(cluster, 4, seed=13)
        cluster.drain()
        assert cluster.converged()
        assert cluster.pending_handoffs() == 0
        for shard in cluster.nodes[4].shards:
            assert not cluster._wals[4].log(shard).fenced
        for key, want in expected_union(
            [(11, range(3)), (12, range(3)), (13, range(4))]
        ).items():
            assert cluster.value(key) == want

    def test_decommissioning_a_crashed_node_preserves_its_wal(self):
        """Dead-node removal must not destroy the only durable copy:
        the crashed leaver's shards are reported unsourced, its logs
        stay unfenced and intact for operator recovery."""
        cluster = make_cluster(4, 4, replication=1, shards=8)
        pump(cluster, 3, seed=23)
        victim = 3
        owned = set(cluster.nodes[victim].shards)
        assert owned
        cluster.run_round(updates=None)  # commit the victim's staged WAL
        sizes = {
            shard: cluster._wals[victim].log(shard).size_bytes()
            for shard in owned
        }
        assert any(size > 0 for size in sizes.values())
        cluster.crash(victim)
        report = cluster.decommission_replica(victim)
        # rf=1: no live old owner — every moved shard is unsourced.
        assert report.unsourced
        assert {shard for shard, _ in report.unsourced} <= owned
        for shard in owned:
            log = cluster._wals[victim].log(shard)
            assert not log.fenced
            assert log.size_bytes() == sizes[shard]

    def test_decommission_below_replication_raises(self):
        cluster = make_cluster(3, 3, replication=3)
        with pytest.raises(ValueError, match="would leave 2 < replication 3"):
            cluster.decommission_replica(0)


class TestHandoffProtocol:
    def test_logless_store_ships_its_encoded_decomposition(self):
        """recovery='repair' has no WAL; the segment falls back to the
        encoded join decomposition of the live shard state."""
        cluster = make_cluster(5, 4, recovery="repair")
        pump(cluster, 3, seed=14)
        cluster.add_replica(4)
        pump(cluster, 4, seed=15)
        cluster.drain()
        assert cluster.converged()
        stats = cluster.scheduler_stats()
        assert stats["handoff_segments"] > 0
        assert stats["handoff_payload_bytes"] > 0

    def test_handoff_survives_message_loss(self):
        """Offers, segments, and acks retry until acknowledged."""
        cluster = make_cluster(5, 4, loss_rate=0.15)
        pump(cluster, 2, seed=16)
        cluster.add_replica(4)
        pump(cluster, 4, seed=17)
        cluster.drain()
        assert cluster.converged()
        assert cluster.pending_handoffs() == 0

    def test_handoff_respects_the_send_budget(self):
        """A tiny budget still makes progress (paced, not starved)."""
        tight = AntiEntropyConfig(
            budget_bytes=256,
            repair_interval=3,
            repair_fanout=4,
            repair_mode="digest",
        )
        cluster = make_cluster(5, 4, antientropy=tight)
        pump(cluster, 3, seed=18, writes=20)
        cluster.add_replica(4)
        pump(cluster, 5, seed=19)
        cluster.drain()
        assert cluster.converged()
        assert cluster.pending_handoffs() == 0

    def test_offer_root_match_short_circuits_the_segment(self):
        """A receiver already holding the content acks the offer
        complete — no segment bytes cross the wire."""
        store = make_store(shards=4)
        shard = next(iter(store.shards))
        offer = _offer_message(store.shards[shard])
        reply = only_reply(store.handle_message(1, batch((shard, offer))))
        assert reply.kind == "kv-handoff-ack"
        complete, root = reply.payload
        assert complete and root is not None

    def test_segment_replay_acks_complete(self):
        sender, receiver = make_store(0, shards=4), make_store(1, shards=4)
        shared = sorted(set(sender.shards) & set(receiver.shards))
        assert shared, "rings this small always share a shard"
        shard = shared[0]
        delta = MapLattice({"set:x": SetLattice({"a", "b"})})
        sender.shards[shard].absorb(delta, None, drain=True)
        segment = Message(
            kind="kv-handoff-segment",
            payload=(encode(sender.shards[shard].state),),
            payload_units=2,
            payload_bytes=10,
            metadata_bytes=8,
            metadata_units=1,
        )
        reply = only_reply(receiver.handle_message(0, batch((shard, segment))))
        complete, root = reply.payload
        assert complete
        assert receiver.shards[shard].state == sender.shards[shard].state
        assert receiver.scheduler.stats()["handoff_segments"] == 1


class TestRebalancePreflight:
    def test_disconnected_placement_fails_before_any_mutation(self):
        """On a non-mesh overlay, a rebalance whose new groups are not
        fully connected must raise *before* touching any store — a
        mid-loop failure would leave the cluster half-rebalanced."""
        from repro.sim.topology import star

        # Star: every spoke reaches only the hub (node 0), so any owner
        # group containing two spokes is disconnected.
        ring = HashRing([0, 1], n_shards=8, replication=2)
        cluster = KVCluster(
            ring,
            keyed_bp_rr,
            config=ClusterConfig(topology=star(4)),
            antientropy=REPAIR,
        )
        cluster.update("set:a", "add", "x")
        cluster.run_round(updates=None)
        shards_before = {
            node: sorted(store.shards) for node, store in enumerate(cluster.nodes)
        }
        with pytest.raises(ValueError, match="cannot reach"):
            cluster.add_replica(2)
        assert cluster.ring.replicas == (0, 1)  # ring untouched
        assert shards_before == {
            node: sorted(store.shards) for node, store in enumerate(cluster.nodes)
        }
        assert cluster.pending_handoffs() == 0


class TestOverlappingRebalances:
    def test_shard_moving_twice_keeps_its_only_copy(self):
        """Back-to-back membership changes while the first handoff is
        still pending must not lose data: at rf=1 the retained old
        source is the only replica with the content, so the second
        rebalance must pick it — not the current (still empty) ring
        owner — and a rootless declination ack must never fence it."""
        cluster = make_cluster(3, 2, replication=1, shards=4)
        for i in range(8):
            cluster.update(f"set:{i}", "add", "precious")
        cluster.run_round(updates=None)
        cluster.drain()
        written = {f"set:{i}" for i in range(8)}
        # First change: node 0 leaves; its shards' handoffs are pending.
        first = cluster.decommission_replica(0)
        # Immediately (no rounds in between): node 2 joins, moving some
        # of those shards a second time before any segment shipped.
        second = cluster.add_replica(2)
        twice_moved = set(first.moved_shards) & set(second.moved_shards)
        cluster.drain()
        assert cluster.converged()
        assert cluster.pending_handoffs() == 0
        for key in written:
            assert cluster.value(key) == {"precious"}, (
                key,
                cluster.ring.shard_of(key),
                twice_moved,
            )
        # Once every handoff settled, nothing lingers in fencing sets.
        for node in cluster.nodes:
            assert not node.handoff.retained
        # Declinations (receivers the second change outran) are counted
        # as abandonments, never as receiver-confirmed completions.
        stats = cluster.scheduler_stats()
        assert (
            stats["handoffs_completed"] + stats["handoffs_abandoned"]
            == stats["handoffs_started"]
        )


class TestStaleTraffic:
    def test_stale_shard_traffic_is_counted_not_fatal(self):
        store = make_store()
        victim = next(iter(store.shards))
        # Move every shard off replica 0, then deliver traffic for one.
        store.apply_ring(HashRing([1, 2], n_shards=8, replication=2))
        assert not store.shards
        stale = batch((victim, Message("state", MapLattice(), 0, 0, 0)))
        assert store.handle_message(1, stale) == []
        assert store.stale_shard_messages == 1

    @pytest.mark.parametrize(
        "inner",
        [
            Message("state", MapLattice(), 0, 0, 0),
            Message("kv-digest", b"r" * 16, 0, 0, 16),
            Message("kv-diff", frozenset(), 0, 0, 0),
            Message("kv-repair", (MapLattice(), None), 0, 0, 0),
        ],
        ids=lambda message: message.kind,
    )
    def test_traffic_for_a_shard_we_should_own_still_fails_loudly(self, inner):
        store = make_store(replication=3)
        shard = next(iter(store.shards))
        del store.shards[shard]  # simulate an internal inconsistency
        with pytest.raises(KVRoutingError):
            store.handle_message(1, batch((shard, inner)))

    def test_unknown_inner_kind_is_the_inner_protocols_error(self):
        """A kind no exchange claims goes to the shard's synchronizer,
        which rejects what it does not speak."""
        store = make_store(inner_factory=Scuttlebutt)
        shard = next(iter(store.shards))
        peer = store.shards[shard].neighbors[0]
        with pytest.raises(ValueError, match="unexpected message kind 'mystery'"):
            store.handle_message(
                peer, batch((shard, Message("mystery", MapLattice(), 0, 0, 0)))
            )


class TestMembershipAndHandoffUnits:
    def test_apply_ring_keeps_surviving_path_clocks_and_suspects_them(self):
        # rf 3: every shard's group goes {0, 1, 2} -> {0, 1, 3}.
        store = make_store(0, 4, ring_nodes=range(3), replication=3)
        shards = tuple(sorted(store.shards))
        store.scheduler.tick = 7
        for shard in shards:
            store.repair.note_delta_activity(shard, 1)
        store.scheduler.tick = 9
        store.apply_ring(HashRing([0, 1, 3], n_shards=8, replication=3))
        for shard in shards:
            # Surviving path keeps its clock; the new path starts warm.
            assert store.repair._last_delta[(shard, 1)] == 7
            assert store.repair._last_delta[(shard, 3)] == 9
            # Paths to dropped peers are gone.
            assert (shard, 2) not in store.repair._last_delta
            # The regroup discarded δ-buffers towards the survivor only.
            assert (shard, 1) in store.repair._suspect
            assert (shard, 3) not in store.repair._suspect
        assert store.repair._peer_shards == {1: shards, 3: shards}

    def test_apply_membership_ignores_suspects_off_the_ring(self):
        store = make_store()
        shard = next(iter(store.shards))
        peer = store.shards[shard].neighbors[0]
        store.repair.apply_membership(suspect_paths=[(shard, peer), (99, 9)])
        assert store.repair._suspect == {(shard, peer)}

    @staticmethod
    def due(store):
        return [(shard, dst, m.kind) for dst, shard, m in store.handoff.due()]

    def test_handoff_lifecycle_offer_segment_done(self):
        store = make_store()
        shard = next(iter(store.shards))
        store.scheduler.tick = 1
        store.handoff.begin(shard, 1)
        assert store.handoff.pending() == 1
        assert self.due(store) == [(shard, 1, "kv-handoff-offer")]
        # Unacknowledged: nothing re-fires before the retry interval.
        assert self.due(store) == []
        assert store.handle_message(1, batch((shard, _ack_message(False, None)))) == []
        assert self.due(store) == [(shard, 1, "kv-handoff-segment")]
        done = _ack_message(True, store.shard_root(shard))
        assert store.handle_message(1, batch((shard, done))) == []
        assert store.handoff.pending() == 0
        assert store.scheduler.stats()["handoffs_started"] == 1
        assert store.scheduler.stats()["handoffs_completed"] == 1

    def test_unacked_phases_retry_after_the_interval(self):
        store = make_store()
        shard = next(iter(store.shards))
        store.scheduler.tick = 1
        store.handoff.begin(shard, 2)
        assert self.due(store) == [(shard, 2, "kv-handoff-offer")]
        store.scheduler.tick += HANDOFF_RETRY_TICKS - 1
        assert self.due(store) == []
        store.scheduler.tick += 1
        assert self.due(store) == [(shard, 2, "kv-handoff-offer")]

    def test_budget_exhaustion_paces_segments_to_one(self):
        store = make_store(
            antientropy=AntiEntropyConfig(budget_bytes=64, repair_fanout=4)
        )
        store.scheduler.tick = 1
        for shard in sorted(store.shards)[:2]:
            for dst in (1, 2):
                store.handoff.begin(shard, dst)
                store.handle_message(dst, batch((shard, _ack_message(False, None))))
        store.scheduler.spent = 999  # the tick's plan() already blew the budget
        assert len(self.due(store)) == 1
        store.scheduler.spent = 0
        store.scheduler.tick += 1  # budget clears; the three never-sent fire
        assert len(self.due(store)) == 3

    def test_a_handoff_whose_copy_is_gone_is_abandoned(self):
        store = make_store()
        store.handoff.begin(99, 1)  # neither hosted nor retained
        assert self.due(store) == []
        assert store.handoff.pending() == 0
        assert store.scheduler.stats()["handoffs_abandoned"] == 1


class TestShardLogFencing:
    def test_fence_truncates_and_seals(self):
        log = ShardLog(MemoryStorage(), "s0.wal")
        log.stage(SetLattice({"a"}))
        log.commit()
        assert log.size_bytes() > 0
        log.fence()
        assert log.fenced
        assert log.size_bytes() == 0
        assert log.replay() is None
        with pytest.raises(WalFencedError):
            log.stage(SetLattice({"x"}))
        log.unfence()
        log.stage(SetLattice({"b"}))
        log.commit()
        assert log.replay() == SetLattice({"b"})

    def test_export_records_round_trips_the_state(self):
        from repro.codec import decode

        log = ShardLog(MemoryStorage(), "s1.wal")
        for element in ("a", "b", "c"):
            log.stage(SetLattice({element}))
        log.commit()
        bodies = log.export_records()
        assert bodies
        state = None
        for body in bodies:
            delta = decode(body)
            state = delta if state is None else state.join(delta)
        assert state == SetLattice({"a", "b", "c"})

    def test_fenced_log_exports_nothing(self):
        log = ShardLog(MemoryStorage(), "s2.wal")
        log.stage(SetLattice({"a"}))
        log.commit()
        log.fence()
        assert log.export_records() == []

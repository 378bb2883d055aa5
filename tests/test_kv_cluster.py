"""The store on the simulated cluster: convergence under faults.

Property tests mirror ``test_sync_convergence_properties`` at store
granularity: whatever the ring shape, inner protocol, and interleaved
typed-update schedule, once updates stop and anti-entropy keeps
running, every replica group agrees on its shard — and the store's
query API returns the semantically expected values (counter totals,
set unions, last writes).  Fault tests exercise the partition/recovery
harness: crashes (with and without disk loss) and partitions heal
through the scheduler's repair pushes.
"""

from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kv import AntiEntropyConfig, HashRing, KVCluster, KVUpdate
from repro.sync import Scuttlebutt, StateBased, keyed_bp_rr, keyed_classic
from repro.sync.merkle import MerkleSync

INNER = {
    "state-based": StateBased,
    "delta-based": keyed_classic,
    "delta-based-bp-rr": keyed_bp_rr,
    "scuttlebutt": Scuttlebutt,
    "merkle": MerkleSync,
}

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def kv_scenarios(draw):
    """A ring plus a random typed schedule routed to owners."""
    replicas = draw(st.integers(min_value=2, max_value=6))
    replication = draw(st.integers(min_value=1, max_value=min(3, replicas)))
    ring = HashRing(range(replicas), n_shards=8, replication=replication)
    rounds = draw(st.integers(min_value=1, max_value=4))
    keys = [f"gct:{i}" for i in range(4)] + [f"set:{i}" for i in range(4)]
    schedule = defaultdict(list)
    for round_index in range(rounds):
        for op_index in range(draw(st.integers(min_value=0, max_value=6))):
            key = draw(st.sampled_from(keys))
            owners = ring.owners(key)
            node = owners[draw(st.integers(min_value=0, max_value=10)) % len(owners)]
            if key.startswith("gct:"):
                op = KVUpdate(key, "increment", (draw(st.integers(1, 3)),))
            else:
                op = KVUpdate(key, "add", (f"e{round_index}-{op_index}",))
            schedule[(round_index, node)].append(op)
    return ring, rounds, dict(schedule)


def run_schedule(cluster, rounds, schedule):
    cluster.run_rounds(
        rounds, lambda r, node: tuple(schedule.get((r, node), ()))
    )
    cluster.drain()


def expected_views(schedule):
    """Per-key ground truth: counter totals and set unions."""
    totals = defaultdict(int)
    unions = defaultdict(set)
    for ops in schedule.values():
        for op in ops:
            if op.op == "increment":
                totals[op.key] += op.args[0]
            else:
                unions[op.key].add(op.args[0])
    return totals, unions


@given(kv_scenarios(), st.sampled_from(sorted(INNER)))
@SLOW
def test_every_protocol_converges_per_key(scenario, algorithm):
    ring, rounds, schedule = scenario
    cluster = KVCluster(ring, INNER[algorithm])
    run_schedule(cluster, rounds, schedule)
    assert cluster.converged()
    totals, unions = expected_views(schedule)
    for key, total in totals.items():
        assert cluster.value(key) == total
    for key, union in unions.items():
        assert cluster.value(key) == union


@given(kv_scenarios())
@SLOW
def test_crash_and_recover_converges(scenario):
    """A replica that crashes mid-run resumes and reconverges."""
    ring, rounds, schedule = scenario
    cluster = KVCluster(
        ring,
        keyed_bp_rr,
        antientropy=AntiEntropyConfig(repair_interval=1, repair_fanout=8),
    )
    run_schedule(cluster, rounds, schedule)
    # Crash someone who is not the coordinator of the probe key, so the
    # smart client can still reach a live owner.
    victim = next(
        r for r in reversed(ring.replicas) if r != ring.coordinator("set:9")
    )
    cluster.crash(victim, lose_state=False)
    cluster.update("set:9", "add", "while-down")
    cluster.run_round(updates=None)
    assert cluster.converged()  # judged over live replicas only
    cluster.recover(victim)
    cluster.drain()
    assert cluster.converged()
    assert cluster.value("set:9") == {"while-down"}


@given(kv_scenarios())
@SLOW
def test_partition_heals_through_repair(scenario):
    """Divergent writes on both sides of a partition reconcile."""
    ring, rounds, schedule = scenario
    n = len(ring.replicas)
    cluster = KVCluster(
        ring,
        keyed_bp_rr,
        antientropy=AntiEntropyConfig(repair_interval=1, repair_fanout=8),
    )
    run_schedule(cluster, rounds, schedule)
    cluster.partition(range(n // 2))
    # Write at every owner still standing, on both sides of the cut.
    for owner in ring.owners("set:px"):
        cluster.apply_update(owner, KVUpdate("set:px", "add", (f"from-{owner}",)))
    for _ in range(2):
        cluster.run_round(updates=None)
    cluster.heal()
    cluster.drain()
    assert cluster.converged()
    assert cluster.value("set:px") == {
        f"from-{owner}" for owner in ring.owners("set:px")
    }


class TestDiskLossRecovery:
    def test_reset_replica_is_refilled_by_repair(self):
        ring = HashRing(range(4), n_shards=8, replication=3)
        cluster = KVCluster(
            ring,
            keyed_bp_rr,
            antientropy=AntiEntropyConfig(repair_interval=2, repair_fanout=8),
        )
        for i in range(12):
            cluster.update(f"aws:{i}", "add", f"e{i}")
        cluster.run_round(updates=None)
        cluster.drain()
        cluster.crash(1, lose_state=True)
        cluster.run_round(updates=None)
        cluster.recover(1)
        cluster.drain()
        assert cluster.converged()
        for i in range(12):
            assert cluster.value(f"aws:{i}") == frozenset({f"e{i}"})

    def test_removals_survive_a_crash_elsewhere(self):
        ring = HashRing(range(4), n_shards=4, replication=3)
        cluster = KVCluster(
            ring,
            keyed_bp_rr,
            antientropy=AntiEntropyConfig(repair_interval=2, repair_fanout=8),
        )
        cluster.update("aws:cart", "add", "milk")
        cluster.update("aws:cart", "add", "bread")
        cluster.run_round(updates=None)
        cluster.drain()
        victim = ring.owners("aws:cart")[1]
        cluster.crash(victim, lose_state=True)
        cluster.remove("aws:cart")
        cluster.update("aws:cart", "add", "eggs")
        cluster.run_round(updates=None)
        cluster.recover(victim)
        cluster.drain()
        assert cluster.converged()
        # The reset replica must not resurrect the removed elements.
        assert cluster.value("aws:cart") == frozenset({"eggs"})


class TestFaultBookkeeping:
    def test_updates_to_a_crashed_node_are_counted(self):
        ring = HashRing(range(4), n_shards=4, replication=2)
        cluster = KVCluster(ring, keyed_bp_rr)
        owner = ring.coordinator("set:x")
        cluster.crash(owner, lose_state=False)
        cluster.run_round(
            lambda node: (KVUpdate("set:x", "add", ("lost",)),)
            if node == owner
            else ()
        )
        assert cluster.updates_skipped == 1

    def test_a_crash_must_say_whether_it_loses_state(self):
        cluster = KVCluster(HashRing(range(2), n_shards=2, replication=2), keyed_bp_rr)
        with pytest.raises(TypeError, match="lose_state"):
            cluster.crash(0)


class TestRouting:
    def test_updates_route_to_live_owners(self):
        ring = HashRing(range(4), n_shards=8, replication=2)
        cluster = KVCluster(ring, keyed_bp_rr)
        first, second = ring.owners("cnt:x")
        cluster.crash(first, lose_state=False)
        cluster.update("cnt:x", "increment", 4)
        assert cluster.value("cnt:x") == 4  # served by the second owner

    def test_unavailable_when_all_owners_down(self):
        import pytest
        from repro.kv import Unavailable

        ring = HashRing(range(3), n_shards=4, replication=1)
        cluster = KVCluster(ring, keyed_bp_rr)
        [only_owner] = ring.owners("cnt:x")
        cluster.crash(only_owner, lose_state=False)
        with pytest.raises(Unavailable):
            cluster.update("cnt:x", "increment")

    def test_ring_must_fit_the_topology(self):
        import pytest
        from repro.sim.topology import full_mesh
        from repro.sim.network import ClusterConfig

        # A ring over an index the topology does not have is rejected...
        ring = HashRing([0, 1, 2, 9], n_shards=4, replication=2)
        with pytest.raises(ValueError, match="node indices"):
            KVCluster(
                ring,
                keyed_bp_rr,
                config=ClusterConfig(topology=full_mesh(6)),
            )

    def test_ring_may_cover_a_topology_subset(self):
        from repro.sim.topology import full_mesh
        from repro.sim.network import ClusterConfig

        # ...but a subset ring is valid: the post-decommission state,
        # and the starting point for a later add_replica.
        ring = HashRing(range(4), n_shards=8, replication=2)
        cluster = KVCluster(
            ring,
            keyed_bp_rr,
            config=ClusterConfig(topology=full_mesh(6)),
        )
        cluster.update("set:s", "add", "x")
        cluster.run_round(updates=None)
        cluster.drain()
        assert cluster.converged()
        assert not cluster.nodes[5].shards  # spare nodes hold nothing


class TestReadReplica:
    """``value(key, read_replica=...)``: pinned single-replica reads."""

    def make(self):
        import pytest

        ring = HashRing(range(4), n_shards=8, replication=2)
        cluster = KVCluster(ring, keyed_bp_rr)
        cluster.update("set:pin", "add", "v")
        cluster.run_round(updates=None)
        cluster.drain()
        return pytest, ring, cluster

    def test_every_owner_serves_the_converged_value(self):
        pytest, ring, cluster = self.make()
        for owner in ring.owners("set:pin"):
            assert cluster.value("set:pin", read_replica=owner) == {"v"}

    def test_default_read_goes_to_the_coordinator(self):
        pytest, ring, cluster = self.make()
        coordinator = ring.coordinator("set:pin")
        assert cluster.value("set:pin") == cluster.value(
            "set:pin", read_replica=coordinator
        )

    def test_non_owner_is_a_routing_error(self):
        pytest, ring, cluster = self.make()
        from repro.kv import KVRoutingError

        outsider = next(
            r for r in ring.replicas if r not in ring.owners("set:pin")
        )
        with pytest.raises(KVRoutingError):
            cluster.value("set:pin", read_replica=outsider)

    def test_down_owner_is_unavailable_not_rerouted(self):
        pytest, ring, cluster = self.make()
        from repro.kv import Unavailable

        owner = ring.owners("set:pin")[0]
        cluster.crash(owner, lose_state=False)
        with pytest.raises(Unavailable):
            cluster.value("set:pin", read_replica=owner)
        # The unpinned read still finds a live owner.
        assert cluster.value("set:pin") == {"v"}

"""Determinism: identical runs produce identical measurements.

Every driver registered in ``repro.experiments.EXPERIMENTS`` is
reproducible — same seeds, same topology, same schedule ⇒ same tables.  These tests pin
that promise at the cluster level (message-by-message) and at the
experiment level (the quantities the paper plots), for protocols with
and without randomized inputs (message loss).
"""

from repro.causal import Causal
from repro.kv import AntiEntropyConfig, HashRing, KVCluster
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.runner import run_experiment
from repro.sim.topology import full_mesh, partial_mesh
from repro.sync import ALGORITHMS, keyed_bp_rr
from repro.workloads import AWSetChurnWorkload, GSetWorkload
from repro.workloads.kv import KVZipfWorkload


def _message_trace(cluster):
    return [
        (m.time, m.src, m.dst, m.kind, m.payload_units, m.metadata_units)
        for m in cluster.metrics.messages
    ]


def _run_churn_cluster():
    workload = AWSetChurnWorkload(8, rounds=6, seed=3)
    cluster = Cluster(
        ClusterConfig(topology=partial_mesh(8, 4)),
        ALGORITHMS["delta-based-bp-rr"],
        Causal.map_bottom(),
    )
    cluster.run_rounds(workload.rounds, workload.updates_for)
    cluster.drain()
    return cluster


def _run_lossy_store():
    """A mixed-type store (causal ``aws:`` keys included) over lossy
    links, with digest repair refilling what the losses took."""
    ring = HashRing(range(8), n_shards=8, replication=3)
    workload = KVZipfWorkload(ring, 6, 3, keys=48, seed=3)
    cluster = KVCluster(
        ring,
        keyed_bp_rr,
        antientropy=AntiEntropyConfig(repair_interval=2, repair_fanout=8, repair_mode="digest"),
        config=ClusterConfig(full_mesh(8), loss_rate=0.2, loss_seed=11),
    )
    cluster.run_rounds(workload.rounds, workload.updates_for)
    cluster.drain()
    return cluster


def test_identical_runs_emit_identical_message_traces():
    first = _run_churn_cluster()
    second = _run_churn_cluster()
    assert _message_trace(first) == _message_trace(second)
    assert first.nodes[0].state == second.nodes[0].state


def test_loss_pattern_is_seeded_and_reproducible():
    first = _run_lossy_store()
    second = _run_lossy_store()
    assert first.messages_dropped == second.messages_dropped > 0
    assert _message_trace(first) == _message_trace(second)
    assert first.merged_keyspace() == second.merged_keyspace()


def test_experiment_results_are_reproducible():
    def run_once():
        return run_experiment(
            ALGORITHMS["scuttlebutt"],
            GSetWorkload(8, rounds=5),
            partial_mesh(8, 4),
        )

    first, second = run_once(), run_once()
    assert first.transmission_units() == second.transmission_units()
    assert first.transmission_bytes() == second.transmission_bytes()
    assert first.final_state_units == second.final_state_units
    assert first.drain_rounds == second.drain_rounds


def test_different_seeds_change_the_trace():
    base = _run_churn_cluster()
    other_workload = AWSetChurnWorkload(8, rounds=6, seed=4)
    cluster = Cluster(
        ClusterConfig(topology=partial_mesh(8, 4)),
        ALGORITHMS["delta-based-bp-rr"],
        Causal.map_bottom(),
    )
    cluster.run_rounds(other_workload.rounds, other_workload.updates_for)
    cluster.drain()
    assert _message_trace(base) != _message_trace(cluster)

"""Determinism: identical runs produce identical measurements.

EXPERIMENTS.md promises that every driver is reproducible — same
seeds, same topology, same schedule ⇒ same tables.  These tests pin
that promise at the cluster level (message-by-message) and at the
experiment level (the quantities the paper plots), for protocols with
and without randomized inputs (message loss).
"""

from repro.causal import Causal
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.runner import run_experiment
from repro.sim.topology import partial_mesh
from repro.sync import ALGORITHMS
from repro.sync import delta_acked_factory
from repro.workloads import AWSetChurnWorkload, GSetWorkload


def _message_trace(cluster):
    return [
        (m.time, m.src, m.dst, m.kind, m.payload_units, m.metadata_units)
        for m in cluster.metrics.messages
    ]


def _run_churn_cluster(loss_rate=0.0):
    workload = AWSetChurnWorkload(8, rounds=6, seed=3)
    cluster = Cluster(
        ClusterConfig(topology=partial_mesh(8, 4), loss_rate=loss_rate, loss_seed=11),
        ALGORITHMS["delta-based-bp-rr"] if loss_rate == 0.0 else delta_acked_factory,
        Causal.map_bottom(),
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
    first = _run_churn_cluster(loss_rate=0.2)
    second = _run_churn_cluster(loss_rate=0.2)
    assert first.messages_dropped == second.messages_dropped > 0
    assert _message_trace(first) == _message_trace(second)


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

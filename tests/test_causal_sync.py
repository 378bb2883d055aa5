"""Integration: causal CRDTs through every synchronization protocol.

The causal lattice implements the same interface as the grow-only
types, so all of Section V's protocols must replicate observed-remove
data unchanged.  These tests run scripted and randomized add/remove
workloads over the paper's topologies and assert global convergence,
no resurrection of removed elements, and the paper's transmission
ordering (BP+RR ≤ classic) — the Appendix B claim made executable.
"""

import random

import pytest

from repro.causal import AWSet, Causal, CCounter, EWFlag
from repro.kv import AntiEntropyConfig, HashRing, KVCluster, KVUpdate
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import full_mesh, partial_mesh, tree
from repro.sync import ALGORITHMS, keyed_bp_rr

PROTOCOLS = sorted(ALGORITHMS)


def run_awset_churn(factory, topology, rounds=6, seed=11):
    """Random adds/removes of a small element pool on every node."""
    config = ClusterConfig(topology=topology)
    cluster = Cluster(config, factory, Causal.map_bottom())
    rng = random.Random(seed)
    elements = [f"e{i}" for i in range(10)]

    def updates_for(round_index, node):
        element = rng.choice(elements)
        if rng.random() < 0.65:
            return (lambda state, e=element: AWSet.add(node, state, e),)
        return (lambda state, e=element: AWSet.remove(node, state, e),)

    cluster.run_rounds(rounds, updates_for)
    cluster.drain()
    return cluster


# ---------------------------------------------------------------------------
# Convergence across all protocols and both paper topologies.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize(
    "topology", [partial_mesh(8, 4), tree(8, 3)], ids=["mesh", "tree"]
)
def test_awset_converges(protocol, topology):
    cluster = run_awset_churn(ALGORITHMS[protocol], topology)
    assert cluster.converged()
    for node in cluster.nodes:
        node.state.check_invariant()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_all_protocols_reach_identical_awset(protocol):
    """Every protocol lands on the same final state for the same script."""
    reference = run_awset_churn(ALGORITHMS["state-based"], partial_mesh(8, 4))
    candidate = run_awset_churn(ALGORITHMS[protocol], partial_mesh(8, 4))
    assert candidate.nodes[0].state == reference.nodes[0].state


def test_ewflag_converges_under_toggling():
    topology = partial_mesh(8, 4)
    cluster = Cluster(
        ClusterConfig(topology=topology),
        ALGORITHMS["delta-based-bp-rr"],
        Causal.set_bottom(),
    )
    rng = random.Random(3)

    def updates_for(round_index, node):
        if rng.random() < 0.5:
            return (lambda state: EWFlag.enable(node, state),)
        return (lambda state: EWFlag.disable(node, state),)

    cluster.run_rounds(6, updates_for)
    cluster.drain()
    assert cluster.converged()


def test_ccounter_converges_with_resets():
    topology = tree(8, 3)
    cluster = Cluster(
        ClusterConfig(topology=topology),
        ALGORITHMS["delta-based-bp-rr"],
        Causal.fun_bottom(),
    )
    rng = random.Random(5)

    def updates_for(round_index, node):
        if rng.random() < 0.85:
            return (lambda state: CCounter.increment(node, state),)
        return (lambda state: CCounter.reset(node, state),)

    cluster.run_rounds(6, updates_for)
    cluster.drain()
    assert cluster.converged()
    values = {
        sum(entry.value for entry in node.state.store.values())
        for node in cluster.nodes
    }
    assert len(values) == 1


# ---------------------------------------------------------------------------
# No resurrection: the regression RR's tombstone handling guards against.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fully_propagated_removal_stays_removed(protocol):
    """Add everywhere, sync, remove at one node, sync: gone everywhere.

    A synchronizer whose ``∆`` dropped tombstones against live remote
    dots would resurrect the element on some path through the mesh.
    """
    topology = partial_mesh(8, 4)
    cluster = Cluster(
        ClusterConfig(topology=topology), ALGORITHMS[protocol], Causal.map_bottom()
    )
    cluster.run_round(
        lambda node: (lambda state: AWSet.add(node, state, "victim"),)
    )
    cluster.drain()
    assert all("victim" in {k for k in node.state.store.keys()} for node in cluster.nodes)

    cluster.run_round(
        lambda node: (
            (lambda state: AWSet.remove(0, state, "victim"),)
            if node == 0
            else ()
        )
    )
    cluster.drain()
    assert cluster.converged()
    for node in cluster.nodes:
        assert "victim" not in {k for k in node.state.store.keys()}


# ---------------------------------------------------------------------------
# Transmission ordering (the paper's Figure 7 claim, on causal data).
# ---------------------------------------------------------------------------


def _total_units(cluster):
    return sum(record.total_units for record in cluster.metrics.messages)


def test_bp_rr_transmits_no_more_than_classic_on_mesh():
    topology = partial_mesh(8, 4)
    classic = run_awset_churn(ALGORITHMS["delta-based"], topology, rounds=8)
    best = run_awset_churn(ALGORITHMS["delta-based-bp-rr"], topology, rounds=8)
    assert _total_units(best) < _total_units(classic)


def test_rr_dominates_bp_on_mesh():
    """With cycles, RR must recover far more than BP alone (Section V-B)."""
    topology = partial_mesh(8, 4)
    bp_only = run_awset_churn(ALGORITHMS["delta-based-bp"], topology, rounds=8)
    rr_only = run_awset_churn(ALGORITHMS["delta-based-rr"], topology, rounds=8)
    assert _total_units(rr_only) < _total_units(bp_only)


def test_classic_tracks_state_based_on_mesh():
    """The paper's headline anomaly holds for causal payloads too."""
    topology = partial_mesh(8, 4)
    state_based = run_awset_churn(ALGORITHMS["state-based"], topology, rounds=8)
    classic = run_awset_churn(ALGORITHMS["delta-based"], topology, rounds=8)
    ratio = _total_units(classic) / _total_units(state_based)
    assert ratio > 0.8  # no better than state-based, within noise


# ---------------------------------------------------------------------------
# Lossy channels: on the kv path digest repair carries causal states too.
# ---------------------------------------------------------------------------


def test_awset_churn_on_the_kv_path_converges_under_loss():
    ring = HashRing(range(8), n_shards=8, replication=3)
    cluster = KVCluster(
        ring,
        keyed_bp_rr,
        antientropy=AntiEntropyConfig(repair_interval=2, repair_fanout=8, repair_mode="digest"),
        config=ClusterConfig(full_mesh(8), loss_rate=0.2, loss_seed=11),
    )
    rng = random.Random(11)
    for _ in range(6):
        for _ in range(8):
            key = f"aws:{rng.randrange(4)}"
            op = "add" if rng.random() < 0.65 else "remove"
            update = KVUpdate(key, op, (f"e{rng.randrange(10)}",))
            cluster.apply_update(rng.choice(ring.owners(key)), update)
        cluster.run_round(updates=None)
    cluster.drain()
    assert cluster.converged()
    assert cluster.messages_dropped > 0


def test_full_mesh_needs_no_relaying():
    """On a complete graph every protocol converges in one drain round."""
    topology = full_mesh(5)
    cluster = run_awset_churn(ALGORITHMS["delta-based-bp-rr"], topology, rounds=3)
    assert cluster.converged()

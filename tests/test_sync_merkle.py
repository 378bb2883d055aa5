"""Merkle-trie anti-entropy: convergence and overhead profile.

Beyond converging on every topology and data type (including causal
states, where trie leaves are dot fragments and tombstones), the tests
pin down the *profile* the paper's related-work section attributes to
hash-based reconciliation: silence costs one digest per neighbour per
tick, localizing divergence costs round trips, and hashing work scales
with the whole state rather than with the change.
"""

import random

import pytest

from repro.causal import AWSet, Causal
from repro.lattice.map_lattice import MapLattice
from repro.lattice.primitives import MaxInt
from repro.lattice.set_lattice import SetLattice
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import line, partial_mesh, tree
from repro.sync import ALGORITHMS
from repro.sync.merkle import MerkleSync


def merkle_cluster(topology, bottom):
    return Cluster(ClusterConfig(topology=topology), MerkleSync, bottom)


def unique_add(node, round_index):
    element = f"n{node}r{round_index}"

    def add(state, e=element):
        if e in state:
            return state.bottom_like()
        return SetLattice((e,))

    return add


# ---------------------------------------------------------------------------
# Convergence.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "topology", [partial_mesh(8, 4), tree(8, 3), line(5)], ids=["mesh", "tree", "line"]
)
def test_gset_converges(topology):
    cluster = merkle_cluster(topology, SetLattice())
    cluster.run_rounds(4, lambda r, node: (unique_add(node, r),))
    cluster.drain()
    assert cluster.converged()
    assert cluster.nodes[0].state.size_units() == 4 * topology.n


def test_gcounter_converges():
    topology = partial_mesh(8, 4)
    cluster = merkle_cluster(topology, MapLattice())

    def bump(state, node):
        current = state.get(node)
        base = current.value if isinstance(current, MaxInt) else 0
        return MapLattice({node: MaxInt(base + 1)})

    cluster.run_rounds(5, lambda r, node: (lambda s, n=node: bump(s, n),))
    cluster.drain()
    assert cluster.converged()
    total = sum(entry.value for _, entry in cluster.nodes[0].state.items())
    assert total == 5 * topology.n


def test_awset_with_removals_converges():
    topology = partial_mesh(8, 4)
    cluster = merkle_cluster(topology, Causal.map_bottom())
    rng = random.Random(17)
    pool = [f"e{i}" for i in range(8)]

    def updates_for(round_index, node):
        element = rng.choice(pool)
        if rng.random() < 0.6:
            return (lambda state, e=element: AWSet.add(node, state, e),)
        return (lambda state, e=element: AWSet.remove(node, state, e),)

    cluster.run_rounds(5, updates_for)
    cluster.drain()
    assert cluster.converged()


def test_matches_delta_based_final_state():
    topology = tree(8, 3)

    def run(factory):
        cluster = Cluster(ClusterConfig(topology=topology), factory, SetLattice())
        cluster.run_rounds(4, lambda r, node: (unique_add(node, r),))
        cluster.drain()
        return cluster.nodes[0].state

    assert run(MerkleSync) == run(ALGORITHMS["delta-based-bp-rr"])


# ---------------------------------------------------------------------------
# Overhead profile (the Section VI critique, quantified).
# ---------------------------------------------------------------------------


def test_quiescent_cost_is_one_digest_per_neighbor():
    """Converged replicas exchange root digests and nothing else."""
    topology = partial_mesh(6, 4)
    cluster = merkle_cluster(topology, SetLattice())
    cluster.run_round(lambda node: (unique_add(node, 0),))
    cluster.drain()
    before = len(cluster.metrics.messages)
    cluster.run_round(updates=None)  # a tick with nothing to reconcile
    idle_messages = cluster.metrics.messages[before:]
    assert all(m.kind == "mt-node" for m in idle_messages)
    assert all(m.payload_units == 0 for m in idle_messages)
    # One root digest per directed neighbour link, no replies.
    links = sum(len(cluster.nodes[i].neighbors) for i in range(topology.n))
    assert len(idle_messages) == links


def test_divergence_localization_costs_round_trips():
    """Reconciling one new element takes digest descent, not one message."""
    pair = line(2)
    cluster = merkle_cluster(pair, SetLattice())
    # Seed a large shared state so the trie has depth.
    cluster.run_round(
        lambda node: tuple(unique_add(node, r) for r in range(100))
    )
    cluster.drain()
    before = len(cluster.metrics.messages)
    cluster.run_round(
        lambda node: (unique_add(node, 999),) if node == 0 else ()
    )
    cluster.drain()
    exchange = [m for m in cluster.metrics.messages[before:]]
    kinds = {m.kind for m in exchange}
    assert "mt-node" in kinds and "mt-leaves" in kinds
    digests = sum(m.metadata_units for m in exchange)
    assert digests > 2  # more than a root exchange: the descent is real

def test_hashing_scales_with_state_not_change():
    """The CPU critique: every tick re-hashes the whole decomposition."""
    pair = line(2)
    cluster = merkle_cluster(pair, SetLattice())
    cluster.run_round(lambda node: tuple(unique_add(node, r) for r in range(50)))
    cluster.drain()
    node = cluster.nodes[0]
    state_size = node.state.size_units()
    baseline = node.hash_operations
    cluster.run_round(updates=None)
    assert node.hash_operations - baseline >= state_size


def test_no_resident_buffers_or_metadata():
    cluster = merkle_cluster(line(2), SetLattice())
    cluster.run_round(lambda node: (unique_add(node, 0),))
    cluster.drain()
    for node in cluster.nodes:
        assert node.buffer_units() == 0
        assert node.metadata_bytes() == 0

"""Nested causal types end-to-end: OR-maps of CRDTs across the cluster.

The deep composition case: an observed-remove map whose values are
themselves causal CRDTs (AW-sets, registers), replicated through the
paper's protocols — with message loss on the acked variant — plus the
delta-algebra identities that make buffered δ-group joins safe.
"""

import random

import pytest

from repro.causal import (
    AWSet,
    Causal,
    CausalMVRegister,
    ORMap,
)
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import partial_mesh, tree
from repro.sync import ALGORITHMS
from repro.sync import DeltaBasedAcked


def ormap_cluster(factory, topology, rounds=6, seed=29, loss_rate=0.0):
    """Each node edits a shared map of carts (ORMap of AW-sets)."""
    config = ClusterConfig(topology=topology, loss_rate=loss_rate, loss_seed=seed)
    cluster = Cluster(config, factory, Causal.map_bottom())
    rng = random.Random(seed)
    carts = ["alice", "bo", "cai"]
    items = [f"item-{i}" for i in range(6)]

    def updates_for(round_index, node):
        cart = rng.choice(carts)
        roll = rng.random()
        if roll < 0.6:
            item = rng.choice(items)
            return (
                lambda state, c=cart, i=item: ORMap.update(node, state, c, AWSet, "add", i),
            )
        if roll < 0.8:
            item = rng.choice(items)
            return (
                lambda state, c=cart, i=item: ORMap.update(
                    node, state, c, AWSet, "remove", i
                ),
            )
        return (lambda state, c=cart: ORMap.remove(node, state, c),)

    cluster.run_rounds(rounds, updates_for)
    cluster.drain()
    return cluster


@pytest.mark.parametrize(
    "protocol", ["state-based", "delta-based", "delta-based-bp-rr", "scuttlebutt"]
)
def test_ormap_of_awsets_converges(protocol):
    cluster = ormap_cluster(ALGORITHMS[protocol], partial_mesh(8, 4))
    assert cluster.converged()
    for node in cluster.nodes:
        node.state.check_invariant()


def test_ormap_protocols_agree_on_final_state():
    reference = ormap_cluster(ALGORITHMS["state-based"], tree(8, 3))
    candidate = ormap_cluster(ALGORITHMS["delta-based-bp-rr"], tree(8, 3))
    assert reference.nodes[0].state == candidate.nodes[0].state


def test_ormap_survives_lossy_channels_with_acked_deltas():
    def factory(replica, neighbors, bottom, n_nodes):
        return DeltaBasedAcked(replica, neighbors, bottom, n_nodes)

    cluster = ormap_cluster(factory, partial_mesh(8, 4), loss_rate=0.25)
    assert cluster.converged()
    assert cluster.messages_dropped > 0


def test_ormap_of_registers_converges():
    topology = partial_mesh(6, 4)
    cluster = Cluster(
        ClusterConfig(topology=topology),
        ALGORITHMS["delta-based-bp-rr"],
        Causal.map_bottom(),
    )
    def updates_for(round_index, node):
        return (
            lambda state, v=f"v{round_index}-{node}": ORMap.update(
                node, state, "profile", CausalMVRegister, "write", v
            ),
        )

    cluster.run_rounds(4, updates_for)
    cluster.drain()
    assert cluster.converged()
    final = cluster.nodes[0].state
    # The last round's writes are concurrent siblings; earlier rounds
    # were observed (directly or transitively) and coalesced away.
    siblings = final.store.get("profile")
    assert siblings is not None and len(siblings) >= 1


# ---------------------------------------------------------------------------
# Delta algebra: the identities δ-buffers rely on.
# ---------------------------------------------------------------------------


def _two_diverged_awsets():
    a, b = AWSet("A"), AWSet("B")
    for i in range(4):
        a.add(f"a{i}")
        b.add(f"b{i}")
    b.merge(a.state)
    b.remove("a1")
    a.add("shared")
    return a.state, b.state


def test_delta_is_idempotent_under_join():
    a, b = _two_diverged_awsets()
    d = a.delta(b)
    once = b.join(d)
    twice = once.join(d)
    assert once == twice


def test_delta_group_join_equals_individual_application():
    """Joining buffered deltas into one δ-group loses nothing."""
    a, b = _two_diverged_awsets()
    mid = a.join(b)
    d1 = a.delta(b)
    d2 = mid.delta(b)
    grouped = d1.join(d2)
    assert b.join(grouped) == b.join(d1).join(d2)


def test_delta_composes_transitively():
    """∆ against an older state covers ∆ against a newer one."""
    a, b = _two_diverged_awsets()
    newer = b.join(a.delta(b))
    assert a.delta(newer).is_bottom
    assert a.delta(b).join(newer) == newer


def test_second_hand_delta_preserves_removals():
    """A delta forwarded through an intermediary still kills the dot."""
    a, b = AWSet("A"), AWSet("B")
    a.add("x")
    b.merge(a.state)
    removal = b.remove("x")
    # An intermediary who never saw the element relays the δ-group.
    relay = Causal.map_bottom().join(removal)
    a.merge(relay.delta(Causal.map_bottom()))
    assert "x" not in a

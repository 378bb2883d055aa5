"""Fault-injection tests: duplication, reordering, and message loss.

State-based CRDT synchronization tolerates duplicated and reordered
messages by construction (joins are idempotent and commutative), and
the paper presents Algorithm 1 under a no-loss assumption.  These tests
verify the tolerance claims and the boundary:

* every registered protocol converges under duplicated and reordered
  delivery, to the state reliable in-order delivery reaches;
* state-based, Scuttlebutt and Merkle anti-entropy converge under heavy
  *loss* (they carry or re-derive everything on every exchange);
* clear-the-buffer delta-based (every BP/RR combination) and op-based
  genuinely lose updates under loss; on the kv path digest repair
  restores convergence (``test_kv_repair.py``).
"""

import random

import pytest

from repro.lattice import SetLattice
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import ring
from repro.sync import (
    ALGORITHMS,
    EXTRA_ALGORITHMS,
    Scuttlebutt,
    StateBased,
    classic,
    delta_bp_rr,
)
from repro.sync.protocol import Message
from repro.workloads import GSetWorkload


def gset_add(element):
    def mutator(state):
        if element in state:
            return state.bottom_like()
        return SetLattice((element,))

    return mutator


class TestDuplication:
    """Channels may duplicate; joins are idempotent."""

    def deliver_twice(self, factory):
        a = factory(0, [1], SetLattice(), 2)
        b = factory(1, [0], SetLattice(), 2)
        a.local_update(gset_add("x"))
        for send in a.sync_messages():
            replies = b.handle_message(0, send.message)
            replies += b.handle_message(0, send.message)  # duplicate
            for reply in replies:
                a.handle_message(1, reply.message)
        return a, b

    def test_state_based(self):
        a, b = self.deliver_twice(StateBased)
        assert b.state == SetLattice({"x"})

    def test_delta_classic_duplicate_group_dropped(self):
        a, b = self.deliver_twice(classic)
        assert b.state == SetLattice({"x"})
        # The duplicate failed the inflation check: buffered once only.
        assert len(b.buffer) == 1

    def test_delta_bp_rr(self):
        a, b = self.deliver_twice(delta_bp_rr)
        assert b.state == SetLattice({"x"})
        assert len(b.buffer) == 1

    def test_scuttlebutt_versions_deduplicate(self):
        a = Scuttlebutt(0, [1], SetLattice(), 2)
        b = Scuttlebutt(1, [0], SetLattice(), 2)
        a.local_update(gset_add("x"))
        [digest] = b.sync_messages()
        [reply] = a.handle_message(1, digest.message)
        b.handle_message(0, reply.message)
        b.handle_message(0, reply.message)  # duplicate delta delivery
        assert b.state == SetLattice({"x"})
        assert len(b.store) == 1


class TestReordering:
    def test_delta_groups_commute(self):
        """Joining δ-groups in any order yields the same state."""
        receiver_fwd = delta_bp_rr(1, [0], SetLattice(), 2)
        receiver_rev = delta_bp_rr(1, [0], SetLattice(), 2)
        first = Message("delta", SetLattice({"a"}), 1, 1, 8, 1)
        second = Message("delta", SetLattice({"b", "c"}), 2, 2, 8, 1)
        receiver_fwd.handle_message(0, first)
        receiver_fwd.handle_message(0, second)
        receiver_rev.handle_message(0, second)
        receiver_rev.handle_message(0, first)
        assert receiver_fwd.state == receiver_rev.state == SetLattice({"a", "b", "c"})

    def test_stale_full_state_is_harmless(self):
        node = StateBased(0, [1], SetLattice(), 2)
        node.handle_message(1, Message("state", SetLattice({"a", "b"}), 2, 2, 0))
        node.handle_message(1, Message("state", SetLattice({"a"}), 1, 1, 0))  # stale
        assert node.state == SetLattice({"a", "b"})


class TestLoss:
    """Message loss: who survives it, who does not."""

    LOSS = 0.35

    def run_lossy(self, factory, n=6, rounds=8, max_drain=400):
        config = ClusterConfig(
            topology=ring(n),
            loss_rate=self.LOSS,
            loss_seed=7,
            max_drain_rounds=max_drain,
        )
        workload = GSetWorkload(n, rounds)
        cluster = Cluster(config, factory, workload.bottom())
        cluster.run_rounds(rounds, workload.updates_for)
        cluster.drain()
        return cluster

    def test_loss_actually_happens(self):
        cluster = self.run_lossy(StateBased)
        assert cluster.messages_dropped > 0

    def test_state_based_converges_under_loss(self):
        cluster = self.run_lossy(StateBased)
        assert cluster.converged()
        assert cluster.nodes[0].state.size_units() == 6 * 8

    def test_scuttlebutt_converges_under_loss(self):
        cluster = self.run_lossy(Scuttlebutt)
        assert cluster.converged()
        assert cluster.nodes[0].state.size_units() == 6 * 8

    def test_clear_buffer_delta_loses_updates_under_loss(self):
        """Algorithm 1 without acks genuinely needs reliable channels:
        a dropped δ-group is gone once the sender clears its buffer."""
        with pytest.raises(RuntimeError, match="no convergence"):
            self.run_lossy(delta_bp_rr, max_drain=60)


# ----------------------------------------------------------------------
# Every registered protocol, under each fault.
# ----------------------------------------------------------------------

EVERY_PROTOCOL = {**ALGORITHMS, **EXTRA_ALGORITHMS}

#: Protocols whose exchanges carry or re-derive everything the peer lacks.
LOSS_TOLERANT = ["state-based", "scuttlebutt", "scuttlebutt-gc", "merkle"]

#: Protocols that forget what they sent once it is sent.
RELIABLE_CHANNELS_ONLY = [
    "delta-based", "delta-based-bp", "delta-based-rr", "delta-based-bp-rr", "op-based",
]


def test_the_loss_split_covers_every_protocol():
    assert sorted(LOSS_TOLERANT + RELIABLE_CHANNELS_ONLY) == sorted(EVERY_PROTOCOL)


def exchange(factory, *, copies=1, order_seed=None, n=4, rounds=3):
    """Run ``rounds`` of updates on a ring, then one synchronization step.

    Every send, and every reply it provokes, is delivered ``copies``
    times; with ``order_seed`` each hop's sends arrive shuffled.
    Returns the replicas and the number of deliveries made.
    """
    topology = ring(n)
    nodes = [
        factory(replica=i, neighbors=list(topology.neighbors(i)), bottom=SetLattice(), n_nodes=n)
        for i in range(n)
    ]
    shuffle = random.Random(order_seed).shuffle if order_seed is not None else None
    deliveries = 0
    for round_index in range(rounds + 1):
        if round_index < rounds:
            for i, node in enumerate(nodes):
                node.local_update(gset_add((i, round_index)))
        hop = [(i, send) for i, node in enumerate(nodes) for send in node.sync_messages()]
        while hop:
            if shuffle is not None:
                shuffle(hop)
            replies = []
            for src, send in hop:
                for _ in range(copies):
                    deliveries += 1
                    replies += [
                        (send.dst, reply)
                        for reply in nodes[send.dst].handle_message(src, send.message)
                    ]
            hop = replies
    return nodes, deliveries


def every_update(n=4, rounds=3):
    return SetLattice({(i, r) for i in range(n) for r in range(rounds)})


@pytest.mark.parametrize("label", EVERY_PROTOCOL)
def test_every_protocol_converges_when_every_message_arrives_twice(label):
    once, once_deliveries = exchange(EVERY_PROTOCOL[label])
    twice, twice_deliveries = exchange(EVERY_PROTOCOL[label], copies=2)
    assert twice_deliveries > once_deliveries
    assert [node.state for node in twice] == [node.state for node in once]
    assert all(node.state == every_update() for node in twice)


@pytest.mark.parametrize("label", EVERY_PROTOCOL)
def test_every_protocol_converges_whatever_order_a_hop_arrives_in(label):
    for seed in (1, 2, 3):
        nodes, _ = exchange(EVERY_PROTOCOL[label], order_seed=seed)
        assert all(node.state == every_update() for node in nodes), seed


@pytest.mark.parametrize("seed", [7, 1, 2])
@pytest.mark.parametrize("label", LOSS_TOLERANT)
def test_anti_entropy_protocols_converge_under_loss(label, seed):
    config = ClusterConfig(
        topology=ring(6), loss_rate=TestLoss.LOSS, loss_seed=seed, max_drain_rounds=400
    )
    workload = GSetWorkload(6, 8)
    cluster = Cluster(config, EVERY_PROTOCOL[label], workload.bottom())
    cluster.run_rounds(8, workload.updates_for)
    cluster.drain()
    assert cluster.messages_dropped > 0
    assert cluster.converged()
    assert cluster.nodes[0].state.size_units() == 6 * 8


@pytest.mark.parametrize("label", RELIABLE_CHANNELS_ONLY)
def test_protocols_that_forget_what_they_sent_lose_updates_under_loss(label):
    with pytest.raises(RuntimeError, match="no convergence"):
        TestLoss().run_lossy(EVERY_PROTOCOL[label], max_drain=60)

"""Fault-injection tests: duplication, reordering, and message loss.

State-based CRDT synchronization tolerates duplicated and reordered
messages by construction (joins are idempotent and commutative), and
the paper presents Algorithm 1 under a no-loss assumption.  These tests
verify the tolerance claims and the boundary:

* every protocol converges under duplicated and reordered delivery;
* state-based and Scuttlebutt converge under heavy *loss* (they carry
  or re-derive everything on every exchange);
* classic clear-the-buffer delta-based genuinely loses updates under
  loss — and the paper's suggested fix (sequence numbers + acks,
  :class:`~repro.sync.deltabased.DeltaBasedAcked`) restores convergence.
"""

import pytest

from repro.lattice import SetLattice
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.runner import run_experiment
from repro.sim.topology import line, partial_mesh, ring
from repro.sync import (
    DeltaBasedAcked,
    Scuttlebutt,
    StateBased,
    classic,
    delta_acked_factory,
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

    def test_acked_variant(self):
        a, b = self.deliver_twice(delta_acked_factory)
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

    def test_acked_delta_converges_under_loss(self):
        """The paper's sequence-number-and-ack extension at work."""
        cluster = self.run_lossy(delta_acked_factory)
        assert cluster.converged()
        assert cluster.nodes[0].state.size_units() == 6 * 8
        # Buffers fully drain once the (also lossy) acks get through.
        for _ in range(100):
            if all(not node.buffer for node in cluster.nodes):
                break
            cluster.run_round(updates=None)
        assert all(not node.buffer for node in cluster.nodes)

    def test_clear_buffer_delta_loses_updates_under_loss(self):
        """Algorithm 1 without acks genuinely needs reliable channels:
        a dropped δ-group is gone once the sender clears its buffer."""
        with pytest.raises(RuntimeError, match="no convergence"):
            self.run_lossy(delta_bp_rr, max_drain=60)

    def test_acked_without_loss_matches_bp_rr_payload(self):
        """With no loss, acking changes bookkeeping, not payloads."""
        topo = partial_mesh(6, 2)
        plain = run_experiment(delta_bp_rr, GSetWorkload(6, 6), topo)
        acked = run_experiment(delta_acked_factory, GSetWorkload(6, 6), topo)
        assert acked.converged and plain.converged
        assert acked.payload_units() <= plain.payload_units() * 1.6


class TestAckedMechanics:
    """The ack exchange itself; the Algorithm 1 mechanics the acked
    class shares with the other two are in
    ``test_sync_delta_contract.py``."""

    def test_buffer_retained_until_acked(self):
        node = DeltaBasedAcked(0, [1, 2], SetLattice(), 3)
        node.local_update(gset_add("x"))
        node.sync_messages()
        assert node.buffer  # unlike Algorithm 1, not cleared by sending
        node.handle_message(1, Message("delta-ack", (0,), 0, 0, 8, 1))
        assert node.buffer  # neighbour 2 has not acked yet
        node.handle_message(2, Message("delta-ack", (0,), 0, 0, 8, 1))
        assert not node.buffer

    def test_bp_entries_skip_origin_ack(self):
        node = DeltaBasedAcked(0, [1, 2], SetLattice(), 3)
        node.handle_message(
            1, Message("delta-seq", (SetLattice({"y"}), (41,)), 1, 1, 8, 1)
        )
        # The entry came from neighbour 1, so only neighbour 2 is sent
        # it — and only neighbour 2 must ack it.
        [send] = node.sync_messages()
        assert send.dst == 2
        _group, covered = send.message.payload
        node.handle_message(2, Message("delta-ack", covered, 0, 0, 8, 1))
        assert not node.buffer
        assert node.sync_messages() == []

    def test_receiver_acks_covered_seqs(self):
        node = DeltaBasedAcked(0, [1], SetLattice(), 2)
        [ack] = node.handle_message(
            1, Message("delta-seq", (SetLattice({"y"}), (5, 6)), 1, 1, 16, 2)
        )
        assert ack.message.kind == "delta-ack"
        assert ack.message.payload == (5, 6)

    def test_resend_until_acked(self):
        node = DeltaBasedAcked(0, [1], SetLattice(), 2)
        node.local_update(gset_add("x"))
        first = node.sync_messages()
        second = node.sync_messages()  # no ack arrived: resend
        assert first[0].message.payload == second[0].message.payload

    def test_acks_for_retired_or_unknown_entries_are_harmless(self):
        node = DeltaBasedAcked(0, [1], SetLattice(), 2)
        node.local_update(gset_add("x"))
        [send] = node.sync_messages()
        ack = Message("delta-ack", send.message.payload[1], 0, 0, 8, 1)
        node.handle_message(1, ack)
        node.handle_message(1, ack)  # duplicate ack of a retired entry
        assert not node.buffer
        node.local_update(gset_add("y"))
        [resend] = node.sync_messages()
        assert resend.message.payload[0] == SetLattice({"y"})

    def test_unexpected_kind_is_a_typed_error(self):
        node = DeltaBasedAcked(0, [1], SetLattice(), 2)
        with pytest.raises(ValueError, match="unexpected message kind"):
            node.handle_message(1, Message("delta", SetLattice({"x"}), 1, 1, 8, 1))

"""Unit tests for the baseline protocols: state-based, Scuttlebutt (±GC),
and operation-based synchronization."""

import pytest

from repro import sizes
from repro.lattice import MapLattice, MaxInt, SetLattice
from repro.sync.opbased import OpBased, OpEnvelope
from repro.sync.protocol import Message
from repro.sync.scuttlebutt import Scuttlebutt, ScuttlebuttGC
from repro.sync.statebased import StateBased


def gset_add(element):
    def mutator(state):
        if element in state:
            return state.bottom_like()
        return SetLattice((element,))

    return mutator


class TestStateBased:
    def test_sends_full_state_to_every_neighbor(self):
        node = StateBased(0, [1, 2], SetLattice(), 3)
        node.local_update(gset_add("x"))
        node.local_update(gset_add("y"))
        sends = node.sync_messages()
        assert len(sends) == 2
        for send in sends:
            assert send.message.payload == SetLattice({"x", "y"})
            assert send.message.payload_units == 2
            assert send.message.metadata_bytes == 0

    def test_does_not_send_bottom(self):
        node = StateBased(0, [1], SetLattice(), 2)
        assert node.sync_messages() == []

    def test_receive_joins(self):
        node = StateBased(0, [1], SetLattice(), 2)
        node.local_update(gset_add("x"))
        node.handle_message(
            1, Message("state", SetLattice({"y"}), 1, 1, 0)
        )
        assert node.state == SetLattice({"x", "y"})

    def test_no_memory_overhead(self):
        node = StateBased(0, [1], SetLattice(), 2)
        node.local_update(gset_add("x"))
        assert node.buffer_units() == 0
        assert node.metadata_bytes() == 0
        assert node.memory_units() == node.state_units()

    def test_retransmits_every_round(self):
        """Full state goes out even with nothing new — the cost the
        delta approach was invented to remove."""
        node = StateBased(0, [1], SetLattice(), 2)
        node.local_update(gset_add("x"))
        first = node.sync_messages()
        second = node.sync_messages()
        assert first[0].message.payload == second[0].message.payload


class TestScuttlebutt:
    def wire(self, initiator, responder):
        """One full digest→deltas round trip between two replicas."""
        for send in initiator.sync_messages():
            if send.dst == responder.replica:
                for reply in responder.handle_message(initiator.replica, send.message):
                    if reply.dst == initiator.replica:
                        initiator.handle_message(responder.replica, reply.message)

    def test_versions_assigned_per_origin(self):
        node = Scuttlebutt(0, [1], SetLattice(), 2)
        node.local_update(gset_add("x"))
        node.local_update(gset_add("y"))
        assert node.vector == {0: 2}
        assert set(node.store) == {(0, 1), (0, 2)}

    def test_bottom_delta_not_versioned(self):
        node = Scuttlebutt(0, [1], SetLattice(), 2)
        node.local_update(gset_add("x"))
        node.local_update(gset_add("x"))  # duplicate
        assert node.vector == {0: 1}

    def test_digest_reply_contains_only_missing(self):
        a = Scuttlebutt(0, [1], SetLattice(), 2)
        b = Scuttlebutt(1, [0], SetLattice(), 2)
        a.local_update(gset_add("x"))
        self.wire(b, a)  # b's digest → a replies with x
        assert b.state == SetLattice({"x"})
        a.local_update(gset_add("y"))
        [digest] = b.sync_messages()
        [reply] = a.handle_message(1, digest.message)
        assert reply.message.payload_units == 1  # only y, not x again

    def test_digest_carries_metadata_only(self):
        node = Scuttlebutt(0, [1], SetLattice(), 2)
        node.local_update(gset_add("x"))
        [digest] = node.sync_messages()
        assert digest.message.payload_units == 0
        assert digest.message.metadata_bytes == sizes.VECTOR_ENTRY_BYTES

    def test_store_never_pruned_without_gc(self):
        a = Scuttlebutt(0, [1], SetLattice(), 2)
        b = Scuttlebutt(1, [0], SetLattice(), 2)
        for i in range(5):
            a.local_update(gset_add(f"x{i}"))
            self.wire(b, a)
            self.wire(a, b)
        assert len(a.store) == 5  # memory grows forever
        assert len(b.store) == 5

    def test_convergence_two_nodes(self):
        a = Scuttlebutt(0, [1], SetLattice(), 2)
        b = Scuttlebutt(1, [0], SetLattice(), 2)
        a.local_update(gset_add("x"))
        b.local_update(gset_add("y"))
        self.wire(a, b)
        self.wire(b, a)
        assert a.state == b.state == SetLattice({"x", "y"})


class TestScuttlebuttGC:
    def full_round(self, nodes):
        """Every node digests every neighbour; replies flow back."""
        for node in nodes:
            for send in node.sync_messages():
                receiver = nodes[send.dst]
                for reply in receiver.handle_message(node.replica, send.message):
                    nodes[reply.dst].handle_message(receiver.replica, reply.message)

    def test_prunes_once_everyone_has_seen(self):
        nodes = [ScuttlebuttGC(i, [1 - i], SetLattice(), 2) for i in range(2)]
        nodes[0].local_update(gset_add("x"))
        for _ in range(4):
            self.full_round(nodes)
        assert nodes[0].state == nodes[1].state == SetLattice({"x"})
        assert len(nodes[0].store) == 0
        assert len(nodes[1].store) == 0

    def test_keeps_deltas_while_some_node_lags(self):
        # Line topology 0–1–2: node 2 only hears via node 1.
        nodes = [
            ScuttlebuttGC(0, [1], SetLattice(), 3),
            ScuttlebuttGC(1, [0, 2], SetLattice(), 3),
            ScuttlebuttGC(2, [1], SetLattice(), 3),
        ]
        nodes[0].local_update(gset_add("x"))
        # One exchange between 0 and 1 only.
        for send in nodes[1].sync_messages():
            if send.dst == 0:
                for reply in nodes[0].handle_message(1, send.message):
                    nodes[1].handle_message(0, reply.message)
        # Node 1 has the delta but node 2 hasn't seen it: no pruning.
        assert len(nodes[1].store) == 1

    def test_matrix_metadata_grows_quadratically(self):
        """The GC digest carries a knowledge matrix: N² vector entries."""
        small = ScuttlebuttGC(0, [1], SetLattice(), 2)
        big = ScuttlebuttGC(0, [1], SetLattice(), 8)
        for node in (small, big):
            node.local_update(gset_add("x"))
        # Fake full knowledge so matrix entries are materialized.
        for node, n in ((small, 2), (big, 8)):
            for member in range(n):
                node.knowledge[member] = {origin: 1 for origin in range(n)}
        [digest_small] = small.sync_messages()
        [digest_big] = big.sync_messages()
        ratio = digest_big.message.metadata_bytes / digest_small.message.metadata_bytes
        assert ratio > 8  # super-linear growth in cluster size


class TestOpBased:
    def test_local_update_buffers_op(self):
        node = OpBased(0, [1], SetLattice(), 2)
        node.local_update(gset_add("x"))
        assert node.delivered == {0: 1}
        assert len(node.buffer) == 1

    def test_ops_carry_vector_clock_metadata(self):
        node = OpBased(0, [1], SetLattice(), 2)
        node.local_update(gset_add("x"))
        [send] = node.sync_messages()
        assert send.message.metadata_bytes >= sizes.VECTOR_ENTRY_BYTES
        assert send.message.payload_units == 1

    def test_not_resent_to_same_neighbor(self):
        node = OpBased(0, [1, 2], SetLattice(), 3)
        node.local_update(gset_add("x"))
        first = node.sync_messages()
        assert {send.dst for send in first} == {1, 2}
        assert node.sync_messages() == []  # everyone marked as having it

    def test_causal_delivery_holds_out_of_order_op(self):
        receiver = OpBased(1, [0], SetLattice(), 2)
        op1 = OpEnvelope(0, 1, {0: 1}, SetLattice({"a"}))
        op2 = OpEnvelope(0, 2, {0: 2}, SetLattice({"b"}))
        receiver.handle_message(0, _ops_message([op2]))
        assert receiver.state.is_bottom  # held: op1 missing
        assert receiver.pending
        receiver.handle_message(0, _ops_message([op1]))
        assert receiver.state == SetLattice({"a", "b"})
        assert not receiver.pending

    def test_cross_origin_causality(self):
        """An op that causally depends on another origin's op waits."""
        receiver = OpBased(2, [0, 1], SetLattice(), 3)
        op_a = OpEnvelope(0, 1, {0: 1}, SetLattice({"a"}))
        op_b = OpEnvelope(1, 1, {0: 1, 1: 1}, SetLattice({"b"}))  # saw op_a
        receiver.handle_message(1, _ops_message([op_b]))
        assert receiver.state.is_bottom
        receiver.handle_message(0, _ops_message([op_a]))
        assert receiver.state == SetLattice({"a", "b"})

    def test_duplicate_marks_seen_by(self):
        receiver = OpBased(2, [0, 1], SetLattice(), 3)
        op = OpEnvelope(0, 1, {0: 1}, SetLattice({"a"}))
        receiver.handle_message(0, _ops_message([op]))
        assert 0 in receiver.buffer[(0, 1)].seen_by
        assert 1 not in receiver.buffer[(0, 1)].seen_by
        receiver.handle_message(1, _ops_message([op]))
        # Both neighbours now have it, so the entry is pruned outright —
        # and the duplicate was not applied a second time.
        assert (0, 1) not in receiver.buffer
        assert receiver.state == SetLattice({"a"})

    def test_buffer_pruned_when_all_neighbors_have_seen(self):
        receiver = OpBased(2, [0, 1], SetLattice(), 3)
        op = OpEnvelope(0, 1, {0: 1}, SetLattice({"a"}))
        receiver.handle_message(0, _ops_message([op]))
        receiver.handle_message(1, _ops_message([op]))
        assert not receiver.buffer

    def test_exactly_once_no_reapplication(self):
        """A pruned-then-re-received op is not applied twice."""
        receiver = OpBased(2, [0, 1], SetLattice(), 3)
        op = OpEnvelope(0, 1, {0: 1}, SetLattice({"a"}))
        receiver.handle_message(0, _ops_message([op]))
        receiver.handle_message(1, _ops_message([op]))  # prunes
        receiver.handle_message(1, _ops_message([op]))  # late duplicate
        assert receiver.delivered == {0: 1}
        assert receiver.state == SetLattice({"a"})


def _ops_message(envelopes):
    units = sum(e.payload.size_units() for e in envelopes)
    payload_bytes = sum(e.payload.size_bytes() for e in envelopes)
    return Message("ops", list(envelopes), units, payload_bytes, 0)

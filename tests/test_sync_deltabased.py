"""Unit tests for Algorithm 1: classic, BP, RR, and BP+RR.

The two distributed executions of the paper's Figures 4 and 5 are
replayed step by step, asserting exactly the redundant transmissions
the paper underlines (BP) and overlines (RR).
"""

from repro import sizes
from repro.lattice import SetLattice
from repro.sync.deltabased import DeltaBased


def gset_add(element):
    """The optimal addδ mutator as a closure."""

    def mutator(state):
        if element in state:
            return state.bottom_like()
        return SetLattice((element,))

    return mutator


def make(replica, neighbors, *, bp=False, rr=False):
    return DeltaBased(
        replica, neighbors, SetLattice(), n_nodes=4, bp=bp, rr=rr
    )


def payload_to(sends, dst):
    """The payload sent to ``dst``, or None when nothing was sent."""
    for send in sends:
        if send.dst == dst:
            return send.message.payload
    return None


class TestFigure4:
    """Two replicas A=0, B=1; BP removes the underlined elements."""

    def run_execution(self, *, bp):
        a = make(0, [1], bp=bp)
        b = make(1, [0], bp=bp)
        a.local_update(gset_add("a"))
        b.local_update(gset_add("b"))

        # •1: B propagates its δ-buffer {b} to A.
        sends_b = b.sync_messages()
        assert payload_to(sends_b, 0) == SetLattice({"b"})
        a.handle_message(1, sends_b[0].message)

        # •2: A sends to B.
        sends_a = a.sync_messages()
        sent_to_b = payload_to(sends_a, 1)

        # B adds c before receiving.
        b.local_update(gset_add("c"))
        b.handle_message(0, sends_a[0].message)

        # •3: B propagates all new changes since the last synchronization.
        sends_b2 = b.sync_messages()
        return sent_to_b, payload_to(sends_b2, 0)

    def test_classic_back_propagates(self):
        """Classic sends {a,b} at •2 and {a,b,c} at •3 — b and {a,b}
        travel straight back to the replicas they came from."""
        at_2, at_3 = self.run_execution(bp=False)
        assert at_2 == SetLattice({"a", "b"})
        assert at_3 == SetLattice({"a", "b", "c"})

    def test_bp_removes_underlined_elements(self):
        """BP sends only {a} at •2 and only {c} at •3."""
        at_2, at_3 = self.run_execution(bp=True)
        assert at_2 == SetLattice({"a"})
        assert at_3 == SetLattice({"c"})

    def test_classic_transmits_as_much_as_state_based(self):
        """The paper's headline anomaly: with a change between every
        sync, classic δ-groups equal the full state."""
        at_2, at_3 = self.run_execution(bp=False)
        assert at_3 == SetLattice({"a", "b", "c"})  # the entire replica state


class TestFigure5:
    """Four replicas A=0, B=1, C=2, D=3 on a cyclic overlay.

    Edges: A–B, A–C, B–C, C–D.  RR removes the overlined ``b`` that
    reaches C twice (directly from B, then inside A's δ-group).
    """

    def run_execution(self, *, bp, rr):
        a = make(0, [1, 2], bp=bp, rr=rr)
        b = make(1, [0, 2], bp=bp, rr=rr)
        c = make(2, [0, 1, 3], bp=bp, rr=rr)
        d = make(3, [2], bp=bp, rr=rr)

        a.local_update(gset_add("a"))
        b.local_update(gset_add("b"))

        # •4: B propagates {b} to neighbours A and C.
        sends_b = b.sync_messages()
        assert payload_to(sends_b, 0) == SetLattice({"b"})
        assert payload_to(sends_b, 2) == SetLattice({"b"})
        a.handle_message(1, payload_msg(sends_b, 0))
        c.handle_message(1, payload_msg(sends_b, 2))

        # •5: C propagates the received {b} to D.
        sends_c = c.sync_messages()
        assert payload_to(sends_c, 3) == SetLattice({"b"})
        d.handle_message(2, payload_msg(sends_c, 3))

        # •6: A sends the join of {a} and the received {b} to C.
        sends_a = a.sync_messages()
        to_c = payload_to(sends_a, 2)
        assert to_c == SetLattice({"a", "b"})  # same under BP: origin is B
        c.handle_message(0, payload_msg(sends_a, 2))

        # •7: C propagates to D.
        sends_c2 = c.sync_messages()
        return payload_to(sends_c2, 3)

    def test_classic_resends_overlined_b(self):
        assert self.run_execution(bp=False, rr=False) == SetLattice({"a", "b"})

    def test_bp_alone_cannot_remove_cycle_redundancy(self):
        """BP does not help: the δ-group arrived from A, not from D."""
        assert self.run_execution(bp=True, rr=False) == SetLattice({"a", "b"})

    def test_rr_extracts_only_the_novel_part(self):
        assert self.run_execution(bp=False, rr=True) == SetLattice({"a"})

    def test_bp_rr_combined(self):
        assert self.run_execution(bp=True, rr=True) == SetLattice({"a"})


def payload_msg(sends, dst):
    for send in sends:
        if send.dst == dst:
            return send.message
    raise AssertionError(f"no message to {dst}")


class TestReliableChannelEnvelope:
    """What only the plain class says; the mechanics all three classes
    share are in ``test_sync_delta_contract.py``."""

    def test_message_metadata_is_one_sequence_number(self):
        node = make(0, [1])
        node.local_update(gset_add("x"))
        [send] = node.sync_messages()
        assert send.message.kind == "delta"
        assert send.message.metadata_bytes == sizes.INT_BYTES
        assert send.message.metadata_units == 1

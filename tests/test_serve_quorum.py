"""Quorum-read semantics, at the pure level and on the in-process cluster.

The serving client's quorum read is two pure functions —
:func:`~repro.serve.client.join_replies` (the result is the join of the
``r`` replies) and :func:`~repro.serve.client.stale_repliers` (who gets
read repair) — tested here against hand-built lattices, divergent and
dominated alike.  Alongside them, the single-replica read they
generalize: ``KVCluster.value(read_replica=...)`` error paths, asserted
down to the message text the serving layer forwards to clients.
"""

from __future__ import annotations

import pytest

from repro.kv import HashRing, KVCluster, KVRoutingError, Unavailable
from repro.lattice import MaxInt, SetLattice
from repro.serve.client import KVClient, join_replies, stale_repliers
from repro.sync import keyed_bp_rr


class TestJoinReplies:
    def test_no_replies_is_none(self):
        assert join_replies([]) is None

    def test_all_unwritten_is_none(self):
        assert join_replies([None, None, None]) is None

    def test_single_reply_is_returned(self):
        reply = SetLattice(frozenset({"a"}))
        assert join_replies([reply]) == reply

    def test_none_replies_are_skipped(self):
        reply = SetLattice(frozenset({"a"}))
        assert join_replies([None, reply, None]) == reply

    def test_divergent_replies_join_to_dominate_both(self):
        left = SetLattice(frozenset({"a", "b"}))
        right = SetLattice(frozenset({"b", "c"}))
        joined = join_replies([left, right])
        assert joined == SetLattice(frozenset({"a", "b", "c"}))
        assert left.leq(joined) and right.leq(joined)

    def test_one_fresh_reply_wins_over_stale_quorum(self):
        # The quorum-overlap argument in miniature: as long as one
        # replier saw the write, the join sees it.
        stale = MaxInt(3)
        fresh = MaxInt(7)
        assert join_replies([stale, stale, fresh]) == MaxInt(7)


class TestStaleRepliers:
    def test_unwritten_key_repairs_nobody(self):
        assert stale_repliers([(0, None), (1, None)], None) == []

    def test_up_to_date_replier_is_not_repaired(self):
        value = SetLattice(frozenset({"x"}))
        assert stale_repliers([(0, value), (1, value)], value) == []

    def test_unwritten_replier_of_a_written_key_is_stale(self):
        value = SetLattice(frozenset({"x"}))
        assert stale_repliers([(0, value), (1, None)], value) == [1]

    def test_strictly_below_replier_is_stale(self):
        below = SetLattice(frozenset({"x"}))
        joined = SetLattice(frozenset({"x", "y"}))
        assert stale_repliers([(0, joined), (1, below)], joined) == [1]

    def test_divergent_repliers_are_both_stale(self):
        left = SetLattice(frozenset({"a"}))
        right = SetLattice(frozenset({"b"}))
        joined = join_replies([left, right])
        assert stale_repliers([(0, left), (1, right)], joined) == [0, 1]


class TestClientQuorumValidation:
    """Constructor guards: quorums bounded by the replication factor."""

    ADDRS = {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2), 2: ("127.0.0.1", 3)}

    def test_r_outside_replication_rejected(self):
        with pytest.raises(ValueError, match="read quorum"):
            KVClient(self.ADDRS, replication=3, r=4)
        with pytest.raises(ValueError, match="read quorum"):
            KVClient(self.ADDRS, replication=3, r=0)

    def test_w_outside_replication_rejected(self):
        with pytest.raises(ValueError, match="write quorum"):
            KVClient(self.ADDRS, replication=3, w=4)

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="unknown read route"):
            KVClient(self.ADDRS, route="nearest")


class TestReadReplicaErrorPaths:
    """``KVCluster.value(read_replica=)``: the exact refusal messages.

    The serving layer forwards these messages verbatim over the wire
    (status ``ERR_ROUTING`` / ``ERR_INTERNAL``), so their content is
    part of the client-visible contract, not just a nicety.
    """

    def make(self):
        ring = HashRing(range(4), n_shards=8, replication=2)
        cluster = KVCluster(ring, keyed_bp_rr)
        cluster.update("set:pin", "add", "v")
        cluster.run_round(updates=None)
        cluster.drain()
        return ring, cluster

    def test_non_owner_names_replica_key_and_owners(self):
        ring, cluster = self.make()
        owners = ring.owners("set:pin")
        outsider = next(r for r in ring.replicas if r not in owners)
        with pytest.raises(KVRoutingError) as excinfo:
            cluster.value("set:pin", read_replica=outsider)
        message = str(excinfo.value)
        assert f"replica {outsider} does not own key 'set:pin'" in message
        assert str(list(owners)) in message

    def test_crashed_pin_is_unavailable_and_names_the_replica(self):
        ring, cluster = self.make()
        owner = ring.owners("set:pin")[0]
        cluster.crash(owner, lose_state=False)
        with pytest.raises(Unavailable) as excinfo:
            cluster.value("set:pin", read_replica=owner)
        assert f"read replica {owner} of key 'set:pin' is down" in str(
            excinfo.value
        )
        # Unpinned reads stay available through the surviving owner.
        assert cluster.value("set:pin") == {"v"}

    def test_quorum_read_of_divergent_owners_is_their_join(self):
        # The cluster-level analogue of the client's quorum read: two
        # owners answer with divergent lattices; the client-side join
        # dominates both, while each single-replica read sees only its
        # own owner's state.
        ring, cluster = self.make()
        owners = ring.owners("set:pin")
        cluster.partition([owners[0]])
        cluster.update("set:pin", "add", "left")  # coordinator's side
        replies = [
            cluster.nodes[owner].value_lattice("set:pin") for owner in owners
        ]
        joined = join_replies(replies)
        assert joined is not None
        for reply in replies:
            assert reply is None or reply.leq(joined)
        from repro.kv.types import spec_for

        read = spec_for("set:pin").read(joined)
        assert "left" in read and "v" in read


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

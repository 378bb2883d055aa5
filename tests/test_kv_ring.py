"""Consistent-hash ring: determinism, placement, and rebalancing."""

import pytest

from repro.kv.ring import HashRing, stable_hash


class TestDeterminism:
    def test_same_parameters_same_placement(self):
        a = HashRing(range(10), n_shards=64, replication=3)
        b = HashRing(range(10), n_shards=64, replication=3)
        assert a.assignment() == b.assignment()

    def test_replica_order_is_irrelevant(self):
        a = HashRing([3, 1, 4, 0, 2], n_shards=16, replication=2)
        b = HashRing(range(5), n_shards=16, replication=2)
        assert a.assignment() == b.assignment()

    def test_stable_hash_is_machine_independent(self):
        # A pinned value: Python's own hash() is salted per process,
        # stable_hash must not be.
        assert stable_hash("user:42") == stable_hash("user:42")
        assert stable_hash("user:42") != stable_hash("user:43")


class TestPlacement:
    def test_owner_groups_have_replication_distinct_members(self):
        ring = HashRing(range(12), n_shards=64, replication=3)
        for shard in range(ring.n_shards):
            owners = ring.shard_owners(shard)
            assert len(owners) == 3
            assert len(set(owners)) == 3
            assert all(o in ring.replicas for o in owners)

    def test_key_to_shard_ignores_membership(self):
        small = HashRing(range(4), n_shards=32, replication=2)
        large = HashRing(range(40), n_shards=32, replication=2)
        for key in (f"k:{i}" for i in range(100)):
            assert small.shard_of(key) == large.shard_of(key)

    def test_owners_matches_shard_owners(self):
        ring = HashRing(range(6), n_shards=16, replication=3)
        for key in (f"cnt:{i}" for i in range(50)):
            assert ring.owners(key) == ring.shard_owners(ring.shard_of(key))
            assert ring.coordinator(key) == ring.owners(key)[0]

    def test_shards_owned_by_inverts_assignment(self):
        ring = HashRing(range(8), n_shards=32, replication=3)
        for replica in ring.replicas:
            for shard in ring.shards_owned_by(replica):
                assert replica in ring.shard_owners(shard)
        total = sum(len(ring.shards_owned_by(r)) for r in ring.replicas)
        assert total == ring.n_shards * ring.replication

    def test_load_is_spread(self):
        """No replica owns a wildly disproportionate shard share."""
        ring = HashRing(range(8), n_shards=256, replication=3)
        counts = [len(ring.shards_owned_by(r)) for r in ring.replicas]
        expected = 256 * 3 / 8
        assert max(counts) < 2.5 * expected
        assert min(counts) > 0


class TestRebalancing:
    def test_adding_a_replica_moves_a_bounded_fraction(self):
        ring = HashRing(range(16), n_shards=256, replication=3)
        grown = ring.with_replica(16)
        moved = ring.moved_shards(grown)
        # Walk membership changes only where the new replica's vnodes
        # land: ~replication/n of shards, far from a full reshuffle.
        assert 0 < len(moved) < 0.5 * ring.n_shards
        # Keys only move when their shard's owner group changed.
        moved_set = set(moved)
        for key in (f"set:{i:04d}" for i in range(200)):
            if ring.shard_of(key) not in moved_set:
                assert set(ring.owners(key)) == set(grown.owners(key))

    def test_removing_a_replica_reassigns_only_its_shards_and_walks(self):
        ring = HashRing(range(10), n_shards=128, replication=3)
        shrunk = ring.without_replica(9)
        for shard in range(ring.n_shards):
            if 9 not in ring.shard_owners(shard):
                # Groups that never contained the leaver mostly stay put.
                continue
            assert 9 not in shrunk.shard_owners(shard)
        # Every shard the leaver owned found a replacement.
        assert all(len(shrunk.shard_owners(s)) == 3 for s in range(128))

    def test_round_trip_membership(self):
        ring = HashRing(range(6), n_shards=64, replication=2)
        back = ring.with_replica(6).without_replica(6)
        assert back.assignment() == ring.assignment()


class TestMembershipValidation:
    def test_adding_an_existing_replica_raises(self):
        """The set() dedup used to swallow duplicates: an 'add' of an
        existing member silently returned an identical ring."""
        ring = HashRing(range(4), n_shards=16, replication=2)
        with pytest.raises(ValueError, match="replica 2 is already a member"):
            ring.with_replica(2)

    def test_removing_an_unknown_replica_raises(self):
        ring = HashRing(range(4), n_shards=16, replication=2)
        with pytest.raises(ValueError, match="replica 9 is not a member"):
            ring.without_replica(9)

    def test_removal_below_replication_is_diagnosed_at_the_call_site(self):
        """Not the constructor's generic 'replication 3 exceeds replica
        count 2' — the error names the removal that broke the invariant."""
        ring = HashRing(range(3), n_shards=8, replication=3)
        with pytest.raises(
            ValueError, match="removing replica 2 would leave 2 < replication 3"
        ):
            ring.without_replica(2)

    def test_moved_fraction_stays_bounded_across_seeds(self):
        """~replication/n of shards move, for any membership size —
        the consistent-hash promise live rebalancing depends on."""
        for n in (8, 12, 16, 24):
            ring = HashRing(range(n), n_shards=256, replication=3)
            grown = ring.with_replica(n)
            added_bound = 256 * 3 / (n + 1)
            assert 0 < len(ring.moved_shards(grown)) < 2.5 * added_bound
            shrunk = ring.without_replica(n - 1)
            removed_bound = 256 * 3 / n
            assert 0 < len(ring.moved_shards(shrunk)) < 2.5 * removed_bound

    def test_add_remove_round_trip_restores_placement(self):
        """Membership changes are pure functions of the member set: an
        add→remove round trip lands on the identical assignment."""
        ring = HashRing(range(10), n_shards=64, replication=3)
        back = ring.with_replica(10).without_replica(10)
        assert back.assignment() == ring.assignment()
        # And re-running the same change reproduces the same placement.
        assert (
            ring.with_replica(10).assignment()
            == ring.with_replica(10).assignment()
        )


class TestValidation:
    def test_replication_beyond_membership(self):
        with pytest.raises(ValueError, match="replication"):
            HashRing(range(2), replication=3)

    def test_empty_ring(self):
        with pytest.raises(ValueError):
            HashRing([])

    def test_incomparable_rings(self):
        a = HashRing(range(4), n_shards=16)
        b = HashRing(range(4), n_shards=32)
        with pytest.raises(ValueError):
            a.moved_shards(b)

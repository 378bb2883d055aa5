"""Consistent-hash partitioning of a keyspace across replica groups.

The store splits its keys into a fixed number of **shards** (hash
buckets) and places each shard on a **replica group** chosen by walking
a consistent-hash ring of virtual nodes — the scheme popularized by
Dynamo-style stores.  Two levels keep the synchronization machinery
tractable:

* ``key → shard`` depends only on the key and the shard count, so it
  never changes as replicas join or leave — per-shard synchronizers,
  δ-buffers, and digests stay valid across membership changes;
* ``shard → owners`` walks the ring from the shard's position taking
  the first ``replication`` distinct replicas, so adding or removing a
  replica reassigns only the shards whose walk crosses the changed
  virtual nodes — the classic ``~moved/n`` rebalancing guarantee.

Everything is derived from SHA-1 digests of stable strings: the same
construction on any machine yields the same placement, which the
deterministic simulation (and the reproducibility of every benchmark)
depends on.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, Hashable, List, Sequence, Tuple

#: Virtual nodes per replica on the ring; more smooth the load
#: distribution at the cost of a larger ring.
VNODES = 64


def _position(token: str) -> int:
    """A point on the ring: the first 8 bytes of SHA-1, big-endian."""
    return int.from_bytes(hashlib.sha1(token.encode("utf-8")).digest()[:8], "big")


def stable_hash(key: Hashable) -> int:
    """A machine-independent hash of a key (Python's ``hash`` is salted)."""
    return _position(repr(key))


class HashRing:
    """Key → shard → replica-group placement with virtual nodes.

    Args:
        replicas: Identifiers of the participating replicas (the node
            indices of the simulated cluster).
        n_shards: Number of hash buckets the keyspace is split into.
        replication: Owners per shard (the replication factor).

    >>> ring = HashRing(range(4), n_shards=16, replication=2)
    >>> ring.owners("user:42") == ring.owners("user:42")   # deterministic
    True
    >>> len(ring.owners("user:42"))
    2
    """

    def __init__(
        self,
        replicas: Sequence[int],
        *,
        n_shards: int = 32,
        replication: int = 3,
    ) -> None:
        replicas = sorted(set(replicas))
        if not replicas:
            raise ValueError("a ring needs at least one replica")
        if replication < 1:
            raise ValueError("replication factor must be at least 1")
        if replication > len(replicas):
            raise ValueError(
                f"replication {replication} exceeds replica count {len(replicas)}"
            )
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.replicas: Tuple[int, ...] = tuple(replicas)
        self.n_shards = n_shards
        self.replication = replication

        points: List[Tuple[int, int]] = []
        for replica in self.replicas:
            for vnode in range(VNODES):
                points.append((_position(f"replica:{replica}#{vnode}"), replica))
        points.sort()
        self._positions = [position for position, _ in points]
        self._owners_at = [replica for _, replica in points]
        #: Precomputed shard → owner group (shard counts are small).
        self._assignment: Tuple[Tuple[int, ...], ...] = tuple(
            self._walk(_position(f"shard:{shard}")) for shard in range(n_shards)
        )

    # ------------------------------------------------------------------
    # Placement queries.
    # ------------------------------------------------------------------

    def shard_of(self, key: Hashable) -> int:
        """The shard holding ``key``; independent of membership."""
        return stable_hash(key) % self.n_shards

    def shard_owners(self, shard: int) -> Tuple[int, ...]:
        """The replica group owning ``shard``, coordinator first."""
        return self._assignment[shard]

    def owners(self, key: Hashable) -> Tuple[int, ...]:
        """The replica group owning ``key``, coordinator first."""
        return self._assignment[self.shard_of(key)]

    def coordinator(self, key: Hashable) -> int:
        """The first owner — the natural home for client requests."""
        return self.owners(key)[0]

    def shards_owned_by(self, replica: int) -> Tuple[int, ...]:
        """The shards ``replica`` holds a copy of, in shard order."""
        return tuple(
            shard
            for shard in range(self.n_shards)
            if replica in self._assignment[shard]
        )

    def assignment(self) -> Dict[int, Tuple[int, ...]]:
        """The full shard → owner-group map."""
        return {shard: owners for shard, owners in enumerate(self._assignment)}

    # ------------------------------------------------------------------
    # Membership changes (rebalancing).
    # ------------------------------------------------------------------

    def with_replica(self, replica: int) -> "HashRing":
        """A new ring with ``replica`` added; placement shifts minimally.

        Raises :class:`ValueError` when the replica is already a member:
        the constructor's ``sorted(set(...))`` dedup used to swallow the
        duplicate and silently return an identical ring, which read as a
        successful membership change that moved zero shards.
        """
        if replica in self.replicas:
            raise ValueError(
                f"replica {replica} is already a member of the ring"
            )
        return HashRing(
            self.replicas + (replica,),
            n_shards=self.n_shards,
            replication=self.replication,
        )

    def without_replica(self, replica: int) -> "HashRing":
        """A new ring with ``replica`` removed.

        Raises :class:`ValueError` when the replica is not a member
        (removal used to silently no-op) and when removal would leave
        fewer members than the replication factor — diagnosed here,
        where the caller knows *which removal* broke the invariant,
        instead of surfacing as the constructor's generic "replication
        k exceeds replica count" complaint.
        """
        if replica not in self.replicas:
            raise ValueError(
                f"replica {replica} is not a member of the ring "
                f"(members: {list(self.replicas)})"
            )
        remaining = tuple(r for r in self.replicas if r != replica)
        if len(remaining) < self.replication:
            raise ValueError(
                f"removing replica {replica} would leave {len(remaining)} "
                f"< replication {self.replication} owners per shard"
            )
        return HashRing(
            remaining,
            n_shards=self.n_shards,
            replication=self.replication,
        )

    def moved_shards(self, other: "HashRing") -> List[int]:
        """Shards whose owner group differs between ``self`` and ``other``."""
        if other.n_shards != self.n_shards:
            raise ValueError("rings with different shard counts are incomparable")
        return [
            shard
            for shard in range(self.n_shards)
            if set(self._assignment[shard]) != set(other._assignment[shard])
        ]

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _walk(self, position: int) -> Tuple[int, ...]:
        """First ``replication`` distinct replicas clockwise of ``position``."""
        owners: List[int] = []
        start = bisect_right(self._positions, position)
        total = len(self._positions)
        for step in range(total):
            replica = self._owners_at[(start + step) % total]
            if replica not in owners:
                owners.append(replica)
                if len(owners) == self.replication:
                    break
        return tuple(owners)

    def __repr__(self) -> str:
        return (
            f"HashRing(replicas={len(self.replicas)}, shards={self.n_shards}, "
            f"replication={self.replication})"
        )

"""Workloads over the sharded key-value store.

The paper's workloads drive one replicated object (or one composed
store lattice) on every node.  These drive :mod:`repro.kv`: typed
operations on a keyspace of heterogeneous CRDTs, each routed — like a
smart client holding a copy of the ring — to an owner of the key's
shard.  Schedules are pre-generated from a seed, so every algorithm in
a sweep replays the identical operation stream against the identical
placement.

Two generators:

* :class:`KVZipfWorkload` — a YCSB-flavoured mixed-type keyspace
  (counters, sets, registers, add-wins sets) with Zipf-distributed key
  popularity, the store-level analogue of the paper's contention sweep;
* :class:`KVRetwisWorkload` — the Retwis application of Section V-C
  recast onto the store: follower sets, walls, and timelines become
  independent keys spread over the ring, and a post fans out to the
  author's followers *as known at schedule time* (the deterministic
  stand-in for a client reading the follower set before writing).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.kv.ring import HashRing
from repro.kv.store import KVUpdate
from repro.lattice.map_lattice import MapLattice
from repro.workloads.base import Workload
from repro.workloads.retwis import (
    FOLLOW_SHARE,
    POST_SHARE,
    followers_key,
    make_tweet_content,
    make_tweet_id,
    timeline_key,
    wall_key,
)
from repro.workloads.zipf import ZipfSampler

#: Element pool sizes for set-valued keys: small enough that hot keys
#: see duplicate adds (bottom deltas) and removals of present elements.
_GSET_POOL = 64
_AWSET_POOL = 24


class _RoutedWorkload(Workload):
    """Shared plumbing: a pre-generated ``(round, node) → ops`` table."""

    def __init__(self, ring: HashRing, rounds: int) -> None:
        super().__init__(len(ring.replicas), rounds)
        self.ring = ring
        self._schedule: Dict[Tuple[int, int], List[KVUpdate]] = {}

    def bottom(self) -> MapLattice:
        return MapLattice()

    def _route(self, round_index: int, op: KVUpdate, pick: int) -> None:
        """Assign ``op`` to one of its key's owners (spread by ``pick``)."""
        owners = self.ring.owners(op.key)
        node = owners[pick % len(owners)]
        self._schedule.setdefault((round_index, node), []).append(op)

    def updates_for(self, round_index: int, node: int) -> Sequence[KVUpdate]:
        return tuple(self._schedule.get((round_index, node), ()))


class KVZipfWorkload(_RoutedWorkload):
    """Mixed-type keyspace under Zipf-skewed key popularity.

    Keys cycle through the key-typing prefixes —
    ``gct:`` (GCounter), ``set:`` (GSet), ``reg:`` (LWWRegister),
    ``aws:`` (AWSet), ``cnt:`` (PNCounter) — so one schedule exercises
    grow-only, lexicographic, and causal synchronization at once.

    Args:
        ring: Key placement; also fixes the node count.
        rounds: Update rounds (one per synchronization interval).
        ops_per_node: Mean operations per node per round.
        keys: Keyspace size (popularity rank = key index).
        zipf_coefficient: Contention knob, 0.5 (low) to 1.5 (high).
        seed: Derives the entire schedule.
    """

    TYPE_CYCLE = ("gct", "set", "reg", "aws", "cnt")

    def __init__(
        self,
        ring: HashRing,
        rounds: int,
        ops_per_node: int = 4,
        *,
        keys: int = 1000,
        zipf_coefficient: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(ring, rounds)
        self.name = f"kv-zipf({zipf_coefficient})"
        self.keys = keys
        self.zipf_coefficient = zipf_coefficient
        self._key_names = [
            f"{self.TYPE_CYCLE[i % len(self.TYPE_CYCLE)]}:{i:05d}" for i in range(keys)
        ]
        sampler = ZipfSampler(keys, zipf_coefficient, seed)
        rng = random.Random(seed ^ 0x5EED)
        clock = 0  # monotone logical clock: unique LWW timestamps
        for round_index in range(rounds):
            for _ in range(self.n_nodes * ops_per_node):
                clock += 1
                key = self._key_names[sampler.sample()]
                prefix = key[:3]
                if prefix == "gct":
                    op = KVUpdate(key, "increment", (1 + rng.randrange(3),))
                elif prefix == "cnt":
                    kind = "increment" if rng.random() < 0.7 else "decrement"
                    op = KVUpdate(key, kind, (1 + rng.randrange(3),))
                elif prefix == "set":
                    op = KVUpdate(key, "add", (f"e{rng.randrange(_GSET_POOL):03d}",))
                elif prefix == "aws":
                    element = f"a{rng.randrange(_AWSET_POOL):03d}"
                    kind = "add" if rng.random() < 0.75 else "remove"
                    op = KVUpdate(key, kind, (element,))
                else:  # reg
                    op = KVUpdate(key, "write", (f"v{clock:08d}", clock))
                self._route(round_index, op, rng.randrange(1 << 16))


class KVRetwisWorkload(_RoutedWorkload):
    """Retwis (Table II) over the store: one key per application object.

    Follows and posts write; timeline reads generate no replication
    traffic and are omitted from the schedule (their Table II share is
    respected when drawing operation kinds, so the write mix matches
    the paper's).  The follow graph is tracked at schedule-generation
    time: a post fans out to the followers the author had accumulated
    when the operation was drawn.
    """

    def __init__(
        self,
        ring: HashRing,
        rounds: int,
        ops_per_node: int = 4,
        *,
        users: int = 200,
        zipf_coefficient: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(ring, rounds)
        self.name = f"kv-retwis({zipf_coefficient})"
        self.users = users
        sampler = ZipfSampler(users, zipf_coefficient, seed)
        rng = random.Random(seed ^ 0xE7)
        followers: Dict[int, List[int]] = {}
        counter = 0
        self.follows = self.posts = self.timeline_reads = 0
        for round_index in range(rounds):
            for _ in range(self.n_nodes * ops_per_node):
                draw = rng.random()
                if draw < FOLLOW_SHARE:
                    self.follows += 1
                    follower = sampler.uniform(users)
                    target = sampler.sample()
                    ops = [KVUpdate(followers_key(target), "add", (follower,))]
                    bucket = followers.setdefault(target, [])
                    if follower not in bucket:
                        bucket.append(follower)
                elif draw < FOLLOW_SHARE + POST_SHARE:
                    self.posts += 1
                    counter += 1
                    author = sampler.sample()
                    tweet_id = make_tweet_id(counter)
                    content = make_tweet_content(counter)
                    ops = [KVUpdate(wall_key(author), "put_chain", (tweet_id, content))]
                    for follower in followers.get(author, ()):
                        ops.append(
                            KVUpdate(
                                timeline_key(follower),
                                "put_chain",
                                (f"ts{counter:029d}", tweet_id),
                            )
                        )
                else:
                    # Timeline read: no replicated write.
                    self.timeline_reads += 1
                    ops = []
                for op in ops:
                    self._route(round_index, op, rng.randrange(1 << 16))

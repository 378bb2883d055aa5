"""The Retwis application workload — Section V-C and Table II.

Retwis is an open-source Twitter clone frequently used as a replication
benchmark.  Each user owns three CRDT objects:

1. a **followers** set (GSet of user identifiers);
2. a **wall** (GMap: tweet identifier ↦ tweet content);
3. a **timeline** (GMap: tweet timestamp ↦ tweet identifier).

The node-local replicated store is modelled as one top-level map
lattice from object key to object state, so synchronization algorithms
treat the entire application state as a single composed CRDT — deltas
are tiny maps touching only the objects an operation wrote.

Operations follow Table II:

=========  ====================  ==========
Operation  CRDT updates          Workload %
=========  ====================  ==========
Follow     1                     15 %
Post       1 + #followers        35 %
Timeline   0                     50 %
=========  ====================  ==========

Posting writes the tweet to the author's wall and fans it out to the
timeline of every follower *currently visible at the executing node* —
exactly the behaviour of a Retwis client attached to that replica.

The users targeted by operations are drawn from a Zipf distribution
(coefficient 0.5–1.5); tweet identifiers and bodies are fixed-width
strings of 31 and 270 bytes, matching the sizes the paper takes from
Facebook's key-value workload analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.lattice.base import Lattice
from repro.lattice.map_lattice import MapLattice
from repro.lattice.primitives import Chain
from repro.lattice.set_lattice import SetLattice
from repro.workloads.base import DeltaMutator, Workload
from repro.workloads.zipf import ZipfSampler

#: Table II operation mix.
FOLLOW_SHARE = 0.15
POST_SHARE = 0.35
TIMELINE_SHARE = 0.50

#: Payload sizes from the paper (Section V-C).
TWEET_ID_BYTES = 31
TWEET_CONTENT_BYTES = 270


def followers_key(user: int) -> str:
    """Object key of a user's follower set."""
    return f"flw:{user:07d}"


def wall_key(user: int) -> str:
    """Object key of a user's wall."""
    return f"wal:{user:07d}"


def timeline_key(user: int) -> str:
    """Object key of a user's timeline."""
    return f"tln:{user:07d}"


def make_tweet_id(counter: int) -> str:
    """A globally unique, 31-byte tweet identifier."""
    return f"t{counter:030d}"


def make_tweet_content(counter: int) -> str:
    """A unique, 270-byte tweet body."""
    prefix = f"tweet {counter} "
    return prefix.ljust(TWEET_CONTENT_BYTES, ".")


@dataclass
class RetwisStats:
    """Operation counts accumulated while generating the schedule."""

    follows: int = 0
    posts: int = 0
    timeline_reads: int = 0

    @property
    def total(self) -> int:
        return self.follows + self.posts + self.timeline_reads


@dataclass(frozen=True)
class _Op:
    """A pre-drawn operation: kind plus the users involved."""

    kind: str
    actor: int
    target: int
    counter: int


class RetwisWorkload(Workload):
    """A deterministic Retwis schedule over a replicated object store.

    Args:
        n_nodes: Replicas in the cluster (the paper uses 50).
        users: Registered users; the paper uses 10 000 (30 000 CRDT
            objects).  Scaled-down runs preserve the contention shape.
        rounds: Update rounds (each is one synchronization interval).
        ops_per_node: Operations each node executes per round.
        zipf_coefficient: Contention knob, 0.5 (low) to 1.5 (high).
        seed: RNG seed; the whole schedule is derived from it.
    """

    def __init__(
        self,
        n_nodes: int,
        users: int = 10_000,
        rounds: int = 60,
        ops_per_node: int = 10,
        zipf_coefficient: float = 1.0,
        seed: int = 42,
    ) -> None:
        super().__init__(n_nodes, rounds)
        if users < 2:
            raise ValueError("Retwis needs at least two users")
        if ops_per_node < 0:
            raise ValueError(f"ops_per_node must be non-negative, got {ops_per_node}")
        self.users = users
        self.ops_per_node = ops_per_node
        self.zipf_coefficient = zipf_coefficient
        self.name = f"retwis-z{zipf_coefficient:g}"
        self.stats = RetwisStats()
        self._schedule = self._generate_schedule(seed)

    # ------------------------------------------------------------------
    # Schedule generation (deterministic).
    # ------------------------------------------------------------------

    def _generate_schedule(self, seed: int) -> Dict[Tuple[int, int], List[_Op]]:
        sampler = ZipfSampler(self.users, self.zipf_coefficient, seed=seed)
        schedule: Dict[Tuple[int, int], List[_Op]] = {}
        counter = 0
        for round_index in range(self.rounds):
            for node in range(self.n_nodes):
                ops: List[_Op] = []
                for _ in range(self.ops_per_node):
                    roll = sampler._rng.random()
                    target = sampler.sample()
                    actor = sampler.uniform(self.users)
                    counter += 1
                    if roll < FOLLOW_SHARE:
                        self.stats.follows += 1
                        ops.append(_Op("follow", actor, target, counter))
                    elif roll < FOLLOW_SHARE + POST_SHARE:
                        self.stats.posts += 1
                        ops.append(_Op("post", target, target, counter))
                    else:
                        self.stats.timeline_reads += 1
                        ops.append(_Op("timeline", actor, target, counter))
                schedule[(round_index, node)] = ops
        return schedule

    # ------------------------------------------------------------------
    # Workload interface.
    # ------------------------------------------------------------------

    def bottom(self) -> Lattice:
        return MapLattice()

    def updates_for(self, round_index: int, node: int) -> Sequence[DeltaMutator]:
        mutators: List[DeltaMutator] = []
        for op in self._schedule.get((round_index, node), ()):
            if op.kind == "follow":
                mutators.append(self._follow_mutator(op))
            elif op.kind == "post":
                mutators.append(self._post_mutator(op))
            # Timeline reads perform no CRDT update (Table II).
        return mutators

    # ------------------------------------------------------------------
    # Operation semantics.
    # ------------------------------------------------------------------

    def _follow_mutator(self, op: _Op) -> DeltaMutator:
        """User ``actor`` follows ``target``: add to target's followers."""
        key = followers_key(op.target)
        follower = f"u{op.actor:07d}"

        def follow(state: Lattice) -> Lattice:
            assert isinstance(state, MapLattice)
            current = state.get(key)
            if isinstance(current, SetLattice) and follower in current:
                return state.bottom_like()
            return MapLattice({key: SetLattice((follower,))})

        return follow

    def _post_mutator(self, op: _Op) -> DeltaMutator:
        """``actor`` posts: write wall, fan out to follower timelines."""
        tweet_id = make_tweet_id(op.counter)
        content = make_tweet_content(op.counter)
        timestamp = f"ts{op.counter:012d}"
        author_wall = wall_key(op.actor)
        author_followers = followers_key(op.actor)

        def post(state: Lattice) -> Lattice:
            assert isinstance(state, MapLattice)
            entries: Dict[str, Lattice] = {
                author_wall: MapLattice({tweet_id: Chain(content, bottom="")})
            }
            visible = state.get(author_followers)
            if isinstance(visible, SetLattice):
                for follower in visible:
                    user = int(follower[1:])
                    entries[timeline_key(user)] = MapLattice(
                        {timestamp: Chain(tweet_id, bottom="")}
                    )
            return MapLattice(entries)

        return post

    # ------------------------------------------------------------------
    # Queries used by examples and tests.
    # ------------------------------------------------------------------

    @staticmethod
    def read_timeline(state: MapLattice, user: int, limit: int = 10) -> List[str]:
        """The ``limit`` most recent tweet ids on a user's timeline."""
        timeline = state.get(timeline_key(user))
        if not isinstance(timeline, MapLattice):
            return []
        recent = sorted(timeline.items(), key=lambda kv: kv[0], reverse=True)[:limit]
        return [chain.value for _, chain in recent if isinstance(chain, Chain)]

    @staticmethod
    def read_wall(state: MapLattice, user: int) -> Dict[str, str]:
        """All tweets on a user's wall, id → content."""
        wall = state.get(wall_key(user))
        if not isinstance(wall, MapLattice):
            return {}
        return {tid: chain.value for tid, chain in wall.items() if isinstance(chain, Chain)}

    @staticmethod
    def read_followers(state: MapLattice, user: int) -> List[str]:
        """A user's followers, sorted."""
        followers = state.get(followers_key(user))
        if not isinstance(followers, SetLattice):
            return []
        return sorted(followers.elements)

"""Merkle-trie anti-entropy — the hash-based related-work baseline.

Section VI of the paper surveys reconciliation mechanisms that detect
divergence by exchanging hashes — Demers et al.'s epidemic algorithms
and the Bloom-filter/Merkle-tree/Patricia-trie schemes of Byers et al.
— and observes that they "require a significant number of message
exchanges to identify the source of divergence" and "might incur
significant processing overhead due to the need of computing hash
functions".  This module implements such a baseline so the claim can be
measured against delta-based synchronization on equal footing.

The state is summarized as a *hash-prefix trie* over the irredundant
join decomposition: each join-irreducible is serialized with
:mod:`repro.codec` and hashed; leaves live in buckets keyed by hash
prefix nibbles, and every trie node's digest combines its children.
Prefix addressing is what makes two replicas' tries comparable without
any shared history.

Per synchronization tick each node starts a push-pull descent with
every neighbour:

1. the initiator sends its root digest;
2. on mismatch the responder answers with child digests, and the
   descent recurses one level per round trip;
3. once a divergent subtree is small (or at maximal depth), the
   responder ships its irreducibles in that bucket and the initiator
   replies with the complement it holds.

Correct and delta-free — but every tick pays hash recomputation over
the whole state, and divergence localization costs ``O(depth)`` round
trips, which is exactly the overhead profile the paper attributes to
this family.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.codec import decode, encode
from repro.lattice.base import Lattice
from repro.sync.protocol import DeltaMutator, Message, Send, Synchronizer

#: Children per trie node: one hex nibble of the leaf hash.
_FANOUT = 16
#: Ship a bucket outright once its subtree holds at most this many leaves.
_BUCKET_THRESHOLD = 8
#: Hard depth cap (16^6 prefixes is beyond any bucket in these workloads).
_MAX_DEPTH = 6
#: Digest size in bytes (sha1), counted as metadata on the wire.
_DIGEST_BYTES = 20


def _leaf_hash(payload: bytes) -> bytes:
    return hashlib.sha1(payload).digest()


class _Trie:
    """An immutable hash-prefix trie over encoded irreducibles.

    Built fresh from a lattice state at every synchronization tick —
    deliberately so: recomputation cost is part of what this baseline
    is measuring.
    """

    __slots__ = ("leaves",)

    def __init__(self, state: Lattice) -> None:
        #: leaf hash → encoded irreducible, for the whole state.
        self.leaves: Dict[bytes, bytes] = {}
        for irreducible in state.decompose():
            payload = encode(irreducible)
            self.leaves[_leaf_hash(payload)] = payload

    def bucket(self, prefix: str) -> List[Tuple[bytes, bytes]]:
        """The (hash, payload) leaves whose hex digest starts with prefix."""
        return [
            (digest, payload)
            for digest, payload in self.leaves.items()
            if digest.hex().startswith(prefix)
        ]

    def node_digest(self, prefix: str) -> bytes:
        """Digest of the subtree under ``prefix`` (empty → root)."""
        hasher = hashlib.sha1()
        for digest in sorted(d for d in self.leaves if d.hex().startswith(prefix)):
            hasher.update(digest)
        return hasher.digest()

    def children(self, prefix: str) -> List[Tuple[str, bytes]]:
        """Non-empty child prefixes of ``prefix`` with their digests."""
        out = []
        for nibble in "0123456789abcdef":
            child = prefix + nibble
            if any(d.hex().startswith(child) for d in self.leaves):
                out.append((child, self.node_digest(child)))
        return out

    def subtree_size(self, prefix: str) -> int:
        return sum(1 for d in self.leaves if d.hex().startswith(prefix))


class MerkleSync(Synchronizer):
    """Anti-entropy over hash-prefix tries of join decompositions.

    Every message carries only digests (metadata) until a divergent
    bucket is found, at which point the bucket's irreducibles travel as
    payload in both directions.  States converge because each exchanged
    bucket join is a lattice join of the union of both sides' leaves.
    """

    name = "merkle"

    def __init__(
        self,
        replica: int,
        neighbors: Sequence[int],
        bottom: Lattice,
        n_nodes: int,
    ) -> None:
        super().__init__(replica, neighbors, bottom, n_nodes)
        #: Hash invocations performed; the related-work CPU proxy.
        self.hash_operations = 0

    # ------------------------------------------------------------------
    # Event handlers.
    # ------------------------------------------------------------------

    def local_update(self, delta_mutator: DeltaMutator) -> Lattice:
        delta = delta_mutator(self.state)
        self.state = self.state.join(delta)
        return delta

    def sync_messages(self) -> List[Send]:
        trie = self._build_trie()
        root = trie.node_digest("")
        message = Message(
            kind="mt-node",
            payload=(("", root),),
            payload_units=0,
            payload_bytes=0,
            metadata_bytes=_DIGEST_BYTES,
            metadata_units=1,
        )
        return [Send(dst=neighbor, message=message) for neighbor in self.neighbors]

    def handle_message(self, src: int, message: Message) -> List[Send]:
        if message.kind == "mt-node":
            return self._handle_digests(src, message.payload)
        if message.kind == "mt-leaves":
            return self._handle_leaves(src, message.payload, reply=True)
        if message.kind == "mt-leaves-final":
            return self._handle_leaves(src, message.payload, reply=False)
        raise ValueError(f"unexpected message kind {message.kind!r}")

    # ------------------------------------------------------------------
    # Descent.
    # ------------------------------------------------------------------

    def _handle_digests(
        self, src: int, nodes: Iterable[Tuple[str, bytes]]
    ) -> List[Send]:
        trie = self._build_trie()
        descend: List[Tuple[str, bytes]] = []
        ship: List[Tuple[str, List[Tuple[bytes, bytes]]]] = []
        for prefix, remote_digest in nodes:
            if trie.node_digest(prefix) == remote_digest:
                continue
            small = trie.subtree_size(prefix) <= _BUCKET_THRESHOLD
            if small or len(prefix) >= _MAX_DEPTH:
                ship.append((prefix, trie.bucket(prefix)))
            else:
                descend.extend(trie.children(prefix))
        sends: List[Send] = []
        if descend:
            sends.append(
                Send(
                    dst=src,
                    message=Message(
                        kind="mt-node",
                        payload=tuple(descend),
                        payload_units=0,
                        payload_bytes=0,
                        metadata_bytes=len(descend) * (_DIGEST_BYTES + 4),
                        metadata_units=len(descend),
                    ),
                )
            )
        if ship:
            sends.append(self._leaves_message(src, ship, kind="mt-leaves"))
        return sends

    def _handle_leaves(
        self,
        src: int,
        buckets: Iterable[Tuple[str, Tuple[Tuple[bytes, bytes], ...]]],
        reply: bool,
    ) -> List[Send]:
        trie = self._build_trie()
        complement: List[Tuple[str, List[Tuple[bytes, bytes]]]] = []
        for prefix, remote_leaves in buckets:
            remote_hashes = set()
            for digest, payload in remote_leaves:
                remote_hashes.add(digest)
                if digest not in trie.leaves:
                    self.state = self.state.join(decode(payload))
            if reply:
                missing_there = [
                    (digest, payload)
                    for digest, payload in trie.bucket(prefix)
                    if digest not in remote_hashes
                ]
                if missing_there:
                    complement.append((prefix, missing_there))
        if complement:
            return [self._leaves_message(src, complement, kind="mt-leaves-final")]
        return []

    def _leaves_message(
        self,
        dst: int,
        buckets: List[Tuple[str, List[Tuple[bytes, bytes]]]],
        kind: str,
    ) -> Send:
        units = 0
        payload_bytes = 0
        for _, leaves in buckets:
            for digest, payload in leaves:
                units += decode(payload).size_units()
                payload_bytes += len(payload)
        hashes = sum(len(leaves) for _, leaves in buckets)
        return Send(
            dst=dst,
            message=Message(
                kind=kind,
                payload=tuple((prefix, tuple(leaves)) for prefix, leaves in buckets),
                payload_units=units,
                payload_bytes=payload_bytes,
                metadata_bytes=hashes * _DIGEST_BYTES,
                metadata_units=hashes,
            ),
        )

    def _build_trie(self) -> _Trie:
        trie = _Trie(self.state)
        # One hash per leaf plus one per digest query is the true cost;
        # leaf count is the dominant, machine-independent term.
        self.hash_operations += len(trie.leaves) + 1
        return trie

    # ------------------------------------------------------------------
    # Memory accounting: tries are transient, nothing is buffered.
    # ------------------------------------------------------------------

    def buffer_units(self) -> int:
        return 0

    def buffer_bytes(self) -> int:
        return 0

    def metadata_bytes(self) -> int:
        return 0

    def metadata_units(self) -> int:
        return 0

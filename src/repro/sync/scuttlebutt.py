"""Scuttlebutt anti-entropy reconciliation over a versioned delta store.

Scuttlebutt (van Renesse et al., LADIS 2008) reconciles key-value
stores: every locally-known update is identified by a version
``⟨origin, seq⟩`` and each node summarizes its knowledge in a vector
``I ↪→ ℕ``.  A node periodically sends its vector to a neighbour, which
replies with every key-value pair the vector does not cover.

Following Section V-B of the paper, the values stored and exchanged are
the **optimal deltas produced by δ-mutators** (storing full CRDT states
would degenerate into state-based sync), and the keys are the version
pairs themselves.  Received deltas are joined into the local CRDT state
and stored for further propagation.

Two variants are implemented:

* :class:`Scuttlebutt` — the original protocol, which can never delete
  a stored delta (a neighbour may always ask for it), so its memory
  footprint grows without bound while updates keep arriving;
* :class:`ScuttlebuttGC` — the paper's extension for safe deletes: each
  node additionally gossips a knowledge map ``I ↪→ (I ↪→ ℕ)`` recording
  the last summary vector it attributes to every node; once a delta's
  version is covered by *every* node's vector, it can never be
  requested again and is pruned.

The metadata costs measured in Figure 9 fall out directly: a vector per
neighbour per round (``NP``) for Scuttlebutt, plus the knowledge matrix
(``N²P``) for Scuttlebutt-GC, plus a version key per shipped delta.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import sizes
from repro.lattice.base import Lattice
from repro.sync.protocol import DeltaMutator, Message, Send, Synchronizer

#: A delta's identity: (origin replica, per-origin sequence number).
Version = Tuple[int, int]


class Scuttlebutt(Synchronizer):
    """Push-pull anti-entropy over ⟨origin, seq⟩-versioned deltas."""

    name = "scuttlebutt"

    def __init__(
        self,
        replica: int,
        neighbors: Sequence[int],
        bottom: Lattice,
        n_nodes: int,
    ) -> None:
        super().__init__(replica, neighbors, bottom, n_nodes)
        #: The delta key-value store: version → delta.
        self.store: Dict[Version, Lattice] = {}
        #: Knowledge summary: origin → highest (gap-free) seq known.
        self.vector: Dict[int, int] = {}
        # Incrementally maintained store sizes so per-round memory
        # sampling stays O(1) even as the store grows without bound.
        self._store_units = 0
        self._store_bytes = 0

    # ------------------------------------------------------------------
    # Local updates: version and store the optimal delta.
    # ------------------------------------------------------------------

    def local_update(self, delta_mutator: DeltaMutator) -> Lattice:
        delta = delta_mutator(self.state)
        if delta.is_bottom:
            return delta
        seq = self.vector.get(self.replica, 0) + 1
        self.vector[self.replica] = seq
        self._store_put((self.replica, seq), delta)
        self.state = self.state.join(delta)
        return delta

    # ------------------------------------------------------------------
    # Periodic step: push the summary vector to every neighbour.
    # ------------------------------------------------------------------

    def sync_messages(self) -> List[Send]:
        message = Message(
            kind="digest",
            payload=dict(self.vector),
            payload_units=0,
            payload_bytes=0,
            metadata_bytes=sizes.vector_bytes(len(self.vector)),
            metadata_units=len(self.vector),
        )
        return [Send(dst=neighbor, message=message) for neighbor in self.neighbors]

    # ------------------------------------------------------------------
    # Message handling.
    # ------------------------------------------------------------------

    def handle_message(self, src: int, message: Message) -> List[Send]:
        if message.kind == "digest":
            return self._answer_digest(src, message.payload)
        if message.kind == "deltas":
            self._absorb_deltas(message.payload)
            return []
        raise ValueError(f"unexpected message kind {message.kind!r}")

    def _answer_digest(self, src: int, remote_vector: Dict[int, int]) -> List[Send]:
        """Reply with every stored delta the remote vector misses."""
        missing = [
            (version, delta)
            for version, delta in self.store.items()
            if version[1] > remote_vector.get(version[0], 0)
        ]
        self._note_remote_vector(src, remote_vector)
        if not missing:
            return []
        units = sum(delta.size_units() for _, delta in missing)
        payload_bytes = sum(delta.size_bytes() for _, delta in missing)
        version_keys = len(missing) * (sizes.ID_BYTES + sizes.INT_BYTES)
        message = Message(
            kind="deltas",
            payload=missing,
            payload_units=units,
            payload_bytes=payload_bytes,
            metadata_bytes=version_keys,
            metadata_units=len(missing),
        )
        return [Send(dst=src, message=message)]

    def _absorb_deltas(self, pairs: List[Tuple[Version, Lattice]]) -> None:
        """Store and join versioned deltas not seen before."""
        for (origin, seq), delta in sorted(pairs, key=lambda pair: pair[0]):
            if seq <= self.vector.get(origin, 0):
                continue
            self._store_put((origin, seq), delta)
            self.vector[origin] = max(self.vector.get(origin, 0), seq)
            self.state = self.state.join(delta)

    def _note_remote_vector(self, src: int, remote_vector: Dict[int, int]) -> None:
        """Hook for the GC variant; the original protocol learns nothing."""

    def absorb_state(self, state: Lattice, src: Optional[int] = None) -> Lattice:
        """Repair absorption: the novelty enters the store *versioned*.

        Repaired content arrives as raw lattice state, outside the
        ⟨origin, seq⟩ identification every stored delta normally
        carries.  Joining it straight into ``self.state`` would make the
        summary vector lie: the replica would hold content its vector
        does not cover, so its digest answers would silently omit it and
        a fresh peer syncing against this replica could never learn it.
        Instead the inflating delta is recorded under a fresh local
        version — exactly as if the replica had (re-)performed the
        update itself — which keeps ``state == ⊔ store`` so digest
        answers can serve everything the replica holds.

        One caveat on a replica rebuilt after state loss: until normal
        gossip restores its own pre-crash sequence range, freshly
        minted versions may be *shadowed* by peers' higher attributed
        seqs and not requested through Scuttlebutt digests.  That is
        harmless for convergence — repaired content always originates
        at some co-owner, so every other pair reconciles it through
        its own exchange (or the store-level repair layer) — and
        deliberately not "fixed" by jumping the sequence counter, which
        would stop peers from re-shipping the pre-crash deltas the
        reset replica's empty vector asks for.
        """
        extracted = state.delta(self.state)
        if extracted.is_bottom:
            return extracted
        seq = self.vector.get(self.replica, 0) + 1
        self.vector[self.replica] = seq
        self._store_put((self.replica, seq), extracted)
        self.state = self.state.join(extracted)
        return extracted

    # ------------------------------------------------------------------
    # Memory accounting.
    # ------------------------------------------------------------------

    def buffer_units(self) -> int:
        return self._store_units

    def buffer_bytes(self) -> int:
        return self._store_bytes

    def _store_put(self, version: Version, delta: Lattice) -> None:
        """Insert a delta, keeping the incremental size counters exact."""
        previous = self.store.get(version)
        if previous is not None:  # pragma: no cover - versions are unique
            self._store_units -= previous.size_units()
            self._store_bytes -= previous.size_bytes()
        self.store[version] = delta
        self._store_units += delta.size_units()
        self._store_bytes += delta.size_bytes()

    def _store_del(self, version: Version) -> None:
        """Remove a delta, keeping the incremental size counters exact."""
        delta = self.store.pop(version)
        self._store_units -= delta.size_units()
        self._store_bytes -= delta.size_bytes()

    def metadata_bytes(self) -> int:
        """Version keys on stored deltas plus the summary vector."""
        version_keys = len(self.store) * (sizes.ID_BYTES + sizes.INT_BYTES)
        return version_keys + sizes.vector_bytes(len(self.vector))

    def metadata_units(self) -> int:
        """One entry per stored version key plus the summary vector."""
        return len(self.store) + len(self.vector)


class ScuttlebuttGC(Scuttlebutt):
    """Scuttlebutt with safe deletes via a gossiped knowledge matrix.

    Every digest additionally carries the sender's knowledge map
    ``I ↪→ (I ↪→ ℕ)``.  A stored delta ⟨o, s⟩ is pruned once every
    replica's attributed vector covers ``s`` — after that, no summary
    vector anyone can ever send would request it again.
    """

    name = "scuttlebutt-gc"

    def __init__(
        self,
        replica: int,
        neighbors: Sequence[int],
        bottom: Lattice,
        n_nodes: int,
    ) -> None:
        super().__init__(replica, neighbors, bottom, n_nodes)
        #: What we believe each node has seen: node → summary vector.
        self.knowledge: Dict[int, Dict[int, int]] = {node: {} for node in range(n_nodes)}

    def sync_messages(self) -> List[Send]:
        self.knowledge[self.replica] = dict(self.vector)
        matrix = {node: dict(vector) for node, vector in self.knowledge.items()}
        matrix_entries = sum(len(vector) for vector in matrix.values())
        message = Message(
            kind="digest",
            payload={"vector": dict(self.vector), "knowledge": matrix},
            payload_units=0,
            payload_bytes=0,
            metadata_bytes=sizes.vector_bytes(len(self.vector))
            + sizes.vector_bytes(matrix_entries),
            metadata_units=len(self.vector) + matrix_entries,
        )
        return [Send(dst=neighbor, message=message) for neighbor in self.neighbors]

    def handle_message(self, src: int, message: Message) -> List[Send]:
        if message.kind == "digest":
            payload = message.payload
            replies = self._answer_digest(src, payload["vector"])
            self._merge_knowledge(payload["knowledge"])
            self._prune()
            return replies
        return super().handle_message(src, message)

    def _note_remote_vector(self, src: int, remote_vector: Dict[int, int]) -> None:
        mine = self.knowledge.setdefault(src, {})
        for origin, seq in remote_vector.items():
            mine[origin] = max(mine.get(origin, 0), seq)

    def _merge_knowledge(self, remote_knowledge: Dict[int, Dict[int, int]]) -> None:
        for node, vector in remote_knowledge.items():
            mine = self.knowledge.setdefault(node, {})
            for origin, seq in vector.items():
                mine[origin] = max(mine.get(origin, 0), seq)

    def _prune(self) -> None:
        """Drop deltas whose version every replica is known to cover."""
        self.knowledge[self.replica] = dict(self.vector)
        deletable = []
        for origin, seq in self.store:
            covered = all(
                self.knowledge.get(node, {}).get(origin, 0) >= seq
                for node in range(self.n_nodes)
            )
            if covered:
                deletable.append((origin, seq))
        for version in deletable:
            self._store_del(version)

    def metadata_bytes(self) -> int:
        matrix_entries = sum(len(vector) for vector in self.knowledge.values())
        return super().metadata_bytes() + sizes.vector_bytes(matrix_entries)

    def metadata_units(self) -> int:
        matrix_entries = sum(len(vector) for vector in self.knowledge.values())
        return super().metadata_units() + matrix_entries

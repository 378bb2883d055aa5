"""Delta-based synchronization — Algorithm 1 of the paper, written once.

The classic algorithm (Almeida et al. 2015/2018) keeps a δ-buffer of
deltas produced locally or received from neighbours; each sync step
joins the whole buffer into one δ-group per neighbour, sends it, and
clears the buffer.  A received δ-group is added to the buffer whenever
it *inflates* the local state (line 16) — and that harmless-looking
check is the source of most redundant transmission the paper measures:
a δ-group almost always contains *something* new, so almost everything
gets re-buffered and re-sent wholesale.

The two optimizations (Section IV), each independently toggleable:

* **BP — avoid back-propagation of δ-groups.**  Buffer entries are
  tagged with the neighbour they came from (local updates are tagged
  with the replica itself); the δ-group sent to neighbour ``j`` skips
  entries tagged ``j``.  Sufficient on its own in cycle-free topologies.

* **RR — remove redundant state in received δ-groups.**  Instead of the
  inflation check, extract from the received δ-group exactly the part
  that strictly inflates the local state — ``∆(d, xᵢ)``, computed from
  the join decomposition (Section III) — and buffer only that.  This is
  what rescues topologies with cycles, where the same state reaches a
  node along multiple paths.

Where each line of Algorithm 1 lives (:class:`DeltaBased`; every
variant below executes these same definitions):

========  ==========================================================
line 5    ``DeltaBased.buffer`` — the δ-buffer ``Bᵢ``, a
          :class:`DeltaBuffer`
6–8       :meth:`DeltaBased.local_update` — ``on operationᵢ(mδ)``
9–13      :meth:`DeltaBased.sync_messages` — the periodic step: the
          BP filter of line 11 is :meth:`DeltaBuffer.pending`, the
          join of line 11 is ``_group_message`` over
          :meth:`DeltaBuffer.joined`, line 13 (clear the buffer) is
          ``_retire_sent``.  Each buffered δ is sized once in its
          life and a δ-group by adding its parts: under RR the parts
          are disjoint in irreducibles, and a join of key-disjoint
          maps is a union (``lattice/map_lattice.py``, *Disjoint
          operands*)
14–17     ``DeltaBased._receive`` — ``on receiveⱼ,ᵢ(d)``: line 15 is
          RR's ``∆(d, xᵢ)`` (a binding the replica holds as the same
          object costs one ``is``: ``lattice/map_lattice.py``,
          *Aliased bindings*); line 16 is either RR's ``d ≠ ⊥`` or the
          classic ``d ⋢ xᵢ``, written as the paper writes it:
          ``not part.leq(local)``; :meth:`DeltaBased.handle_message` and
          :meth:`DeltaBased.absorb_state` both run it
18–20     ``DeltaBased._store`` — ``store(s, o)``.  Line 19's join
          ``xᵢ := xᵢ ⊔ s`` is in place (``MapLattice.join_owned``)
          while the replica owns ``xᵢ``: it built the value and no one
          has read :attr:`~repro.sync.protocol.Synchronizer.state`
          since (``local_update`` hands the δ-mutator ``_state`` and
          ``_local`` reads it, neither ends ownership).  Otherwise the
          join copies, and the replica owns the result only when it is
          a ``MapLattice`` that is neither operand — a fresh dict no
          one else has seen.  So the store costs O(|δ|), not O(|xᵢ|)
========  ==========================================================

The paper varies Algorithm 1 along two further axes, and each is one
subclass that states *only* that axis:

* **Granularity (Section V-C)** — :class:`KeyedDeltaBased`.  The Retwis
  deployment runs one instance of Algorithm 1 per object of a
  ``MapLattice`` store.  The three hooks ``_split`` (how a δ divides
  into parts), ``_local`` (what a part is compared against) and
  ``_assemble`` (how parts re-form one lattice value) say so; the base
  class treats the whole state as a single part under the key ``None``.

* **Channel (Section IV, last paragraph)** — :class:`DeltaBasedAcked`.
  Algorithm 1 assumes reliable channels "for simplicity of
  presentation"; the assumption is removed "by simply tagging each
  entry in the δ-buffer with a unique sequence number, and by
  exchanging acks between replicas", as originally proposed by Almeida
  et al.  The hooks ``_settled`` (which entries a neighbour no longer
  needs), ``_envelope`` (the payload and sequence numbers around a
  δ-group), ``_retire_sent`` (whether sending retires entries) and
  ``_channel_units`` (the channel's resident sequence state) say so;
  the base class retires on send and accounts one sequence number per
  neighbour for the extension.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro import sizes
from repro.lattice.base import Lattice
from repro.lattice.map_lattice import MapLattice
from repro.sync.protocol import DeltaMutator, Message, Send, Synchronizer


class DeltaBuffer:
    """The δ-buffer ``Bᵢ``: sequence-numbered ``(key, δ, origin)`` entries.

    ``key`` names the part of the state the δ belongs to (``None`` when
    the state is synchronized as a whole), ``origin`` is the replica
    the δ came from (BP's tag), and the sequence number is what a
    lossy-channel ack refers to.  Iterating yields the entries in
    insertion order; sizes are summed when read, never kept as running
    totals.
    """

    __slots__ = ("entries", "_next_seq")

    def __init__(self) -> None:
        self.entries: Dict[int, Tuple[Hashable, Lattice, int]] = {}
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries.values())

    def add(self, key: Hashable, delta: Lattice, origin: int) -> None:
        self.entries[self._next_seq] = (key, delta, origin)
        self._next_seq += 1

    def pending(
        self, exclude: Optional[int], settled: Collection[int]
    ) -> Tuple[int, ...]:
        """Sequence numbers still owed to one neighbour, in order.

        Skips entries whose origin is ``exclude`` (BP; ``None`` excludes
        nothing) and entries in ``settled`` (already acknowledged).
        """
        return tuple(
            [
                seq
                for seq, (_, _, origin) in self.entries.items()
                if origin != exclude and seq not in settled
            ]
        )

    def joined(self, seqs: Iterable[int]) -> Dict[Hashable, Lattice]:
        """The entries ``seqs`` joined per key — one δ-group per part."""
        parts: Dict[Hashable, Lattice] = {}
        for seq in seqs:
            key, delta, _ = self.entries[seq]
            current = parts.get(key)
            parts[key] = delta if current is None else current.join(delta)
        return parts

    def clear(self) -> None:
        self.entries.clear()

    def units(self) -> int:
        return sum(delta.size_units() for _, delta, _ in self)

    def bytes(self) -> int:
        """Buffered δs plus the keys they are filed under (``None`` is free)."""
        return sum(sizes.sizeof(key) + delta.size_bytes() for key, delta, _ in self)


class DeltaBased(Synchronizer):
    """Algorithm 1 at one replica, with BP and RR switches.

    Args:
        bp: Enable avoid-back-propagation (tagged buffer entries).
        rr: Enable remove-redundant-state (``∆`` extraction on receive).

    The four paper configurations are ``DeltaBased`` (classic),
    ``bp=True``, ``rr=True``, and ``bp=True, rr=True``; module-level
    factories :func:`classic`, :func:`delta_bp`, :func:`delta_rr` and
    :func:`delta_bp_rr` bind the flags and the paper's plot labels.
    """

    name = "delta-based"
    #: Wire kind of one δ-group message.
    kind = "delta"

    def __init__(
        self,
        replica: int,
        neighbors: Sequence[int],
        bottom: Lattice,
        n_nodes: int,
        *,
        bp: bool = False,
        rr: bool = False,
    ) -> None:
        super().__init__(replica, neighbors, bottom, n_nodes)
        self.bp = bp
        self.rr = rr
        #: Algorithm 1 line 5.  Classic mode simply ignores the origin
        #: tags when sending.
        self.buffer = DeltaBuffer()

    # ------------------------------------------------------------------
    # Algorithm 1, line 6-8: on operationᵢ(mδ).
    # ------------------------------------------------------------------

    def local_update(self, delta_mutator: DeltaMutator) -> Lattice:
        delta = delta_mutator(self._state)
        if not delta.is_bottom:
            self._store(delta, self.replica)
        return delta

    # ------------------------------------------------------------------
    # Algorithm 1, line 9-13: periodic synchronization.
    # ------------------------------------------------------------------

    def sync_messages(self) -> List[Send]:
        """Join the pending entries into one δ-group per neighbour.

        With BP enabled, entries tagged with the destination are
        filtered out (line 11, right-hand variant); classic joins the
        whole buffer for everyone.

        Neighbours owed the *same* entries receive the same δ-group, so
        they share one frozen message object, sized once and (on a real
        transport) encoded once; see :func:`repro.codec.frame_message`.
        Only a neighbour whose pending set differs — it tagged an entry
        (BP), or its acks differ — gets a private group.
        """
        if not self.buffer:
            return []
        sends: List[Send] = []
        built: Dict[Tuple[int, ...], Message] = {}
        for neighbor in self.neighbors:
            covered = self.buffer.pending(
                neighbor if self.bp else None, self._settled(neighbor)
            )
            if not covered:
                continue
            message = built.get(covered)
            if message is None:
                message = built[covered] = self._group_message(covered)
            sends.append(Send(dst=neighbor, message=message))
        self._retire_sent()
        return sends

    def _group_message(self, covered: Tuple[int, ...]) -> Message:
        """Line 11's join of the entries ``covered``, in its envelope.

        Each entry is sized before the join: a memo hit for any δ that
        sat through a memory sample or is owed to an earlier group, and
        key-disjoint sized parts join into a group that is born sized.
        """
        for seq in covered:
            self._payload_sizes(self.buffer.entries[seq][1])
        group = self._assemble(self.buffer.joined(covered))
        payload, seqs = self._envelope(group, covered)
        units, payload_bytes = self._payload_sizes(group)
        return Message(
            kind=self.kind,
            payload=payload,
            payload_units=units,
            payload_bytes=payload_bytes,
            metadata_bytes=seqs * sizes.INT_BYTES,
            metadata_units=seqs,
        )

    # ------------------------------------------------------------------
    # Algorithm 1, line 14-17: on receive.
    # ------------------------------------------------------------------

    def handle_message(self, src: int, message: Message) -> List[Send]:
        self._receive(message.payload, src, self.rr)
        return []

    def absorb_state(self, state: Lattice, src: Optional[int] = None) -> Lattice:
        """Repair absorption: buffer the novelty so it propagates on.

        Extracting ``∆(state, xᵢ)`` is the RR treatment of a received
        state; storing it (tagged with its source when known) lets the
        repaired content ride the normal δ-path to other neighbours
        instead of silently bypassing the buffer.
        """
        return self._receive(state, self.replica if src is None else src, True)

    def _receive(self, received: Lattice, origin: int, rr: bool) -> Lattice:
        """Lines 14–17, part by part; returns what was stored (or ⊥)."""
        novel: Dict[Hashable, Lattice] = {}
        for key, part in self._split(received):
            local = self._local(key)
            if local is None:
                # A part this replica has never seen is new as a whole.
                novel[key] = part
            elif rr:
                # Line 15: d = ∆(d, xᵢ) — keep only what strictly inflates.
                extracted = part.delta(local)
                # Line 16 (RR): if d ≠ ⊥.
                if not extracted.is_bottom:
                    novel[key] = extracted
            elif not part.leq(local):
                # Line 16 (classic): if d ⋢ xᵢ — the naive inflation
                # check; the whole part is kept, redundancy included.
                novel[key] = part
        delta = self._assemble(novel)
        if not delta.is_bottom:
            self._store(delta, origin)
        return delta

    # ------------------------------------------------------------------
    # Algorithm 1, line 18-20: store(s, o).
    # ------------------------------------------------------------------

    def _store(self, delta: Lattice, origin: int) -> None:
        if self._owned and delta is not self._state:
            self._state.join_owned(delta)
        else:
            joined = self._state.join(delta)
            self._owned = (
                isinstance(joined, MapLattice) and joined is not self._state and joined is not delta
            )
            self._state = joined
        for key, part in self._split(delta):
            self.buffer.add(key, part, origin)

    # ------------------------------------------------------------------
    # Granularity: the whole state is one part (KeyedDeltaBased differs).
    # ------------------------------------------------------------------

    def _split(self, delta: Lattice) -> Iterable[Tuple[Hashable, Lattice]]:
        """The ``(key, part)`` pieces Algorithm 1 handles separately."""
        return ((None, delta),)

    def _local(self, key: Hashable) -> Optional[Lattice]:
        """What a received part under ``key`` is compared against."""
        return self._state

    def _assemble(self, parts: Dict[Hashable, Lattice]) -> Lattice:
        """Parts back into one lattice value (``⊥`` when there are none)."""
        return parts.get(None, self.bottom)

    # ------------------------------------------------------------------
    # Channel: reliable, so sending retires (DeltaBasedAcked differs).
    # ------------------------------------------------------------------

    def _settled(self, neighbor: int) -> Collection[int]:
        """Sequence numbers ``neighbor`` no longer needs to be sent."""
        return ()

    def _envelope(self, group: Lattice, covered: Tuple[int, ...]) -> Tuple[Any, int]:
        """The message payload around ``group`` and how many sequence
        numbers of metadata it carries: the bare δ-group, accounted one
        sequence number for the lossy-channel extension."""
        return group, 1

    def _retire_sent(self) -> None:
        """Line 13: channels do not drop, so a sent entry is done."""
        self.buffer.clear()

    def _channel_units(self) -> int:
        """Resident channel state: one sequence number per neighbour."""
        return len(self.neighbors)

    # ------------------------------------------------------------------
    # Memory accounting.
    # ------------------------------------------------------------------

    def buffer_units(self) -> int:
        return self.buffer.units()

    def buffer_bytes(self) -> int:
        return self.buffer.bytes()

    def metadata_bytes(self) -> int:
        """Origin tags on buffer entries (BP) plus the channel's integers."""
        tags = len(self.buffer) * sizes.ID_BYTES if self.bp else 0
        return tags + self._channel_units() * sizes.INT_BYTES

    def metadata_units(self) -> int:
        """One entry per origin tag (BP) plus one per channel integer."""
        tags = len(self.buffer) if self.bp else 0
        return tags + self._channel_units()


class KeyedDeltaBased(DeltaBased):
    """Algorithm 1 instantiated per object of a replicated store.

    The Retwis deployment (Section V-C) replicates 30 000 independent
    CRDT objects; every object runs its own instance of Algorithm 1 and
    the per-round packets between neighbours bundle the per-object
    δ-groups.  The granularity matters enormously for the *classic*
    algorithm: its naive inflation check (line 16) operates per object,
    so a δ-group for a cold object that is entirely dominated gets
    dropped, and only objects with concurrent updates between
    synchronization rounds trigger the redundant re-buffering the paper
    measures.  That is why classic is "almost optimal" at Zipf 0.5 and
    collapses at 1.5 — and modelling the whole store as one composed
    CRDT would erase exactly that effect.

    The replicated state must be a :class:`MapLattice` from object keys
    to object lattice states (the Retwis store maps object identifiers
    to followers/wall/timeline CRDTs).  With RR enabled the extraction
    uses the value lattice's ``∆``, which also removes redundancy
    *inside* one object's δ-group; BP is unchanged (origin tags travel
    with each buffered entry).
    """

    name = "keyed-delta-based"
    kind = "keyed-delta"

    def __init__(
        self,
        replica: int,
        neighbors: Sequence[int],
        bottom: Lattice,
        n_nodes: int,
        *,
        bp: bool = False,
        rr: bool = False,
    ) -> None:
        if not isinstance(bottom, MapLattice):
            raise TypeError("KeyedDeltaBased replicates a MapLattice object store")
        super().__init__(replica, neighbors, bottom, n_nodes, bp=bp, rr=rr)

    def _split(self, delta: Lattice) -> Iterable[Tuple[Hashable, Lattice]]:
        return delta.items()

    def _local(self, key: Hashable) -> Optional[Lattice]:
        return self._state.get(key)

    def _assemble(self, parts: Dict[Hashable, Lattice]) -> Lattice:
        return MapLattice(parts)


class DeltaBasedAcked(DeltaBased):
    """Algorithm 1 over lossy channels: the acknowledgement-pruned buffer.

    Always BP+RR — no site ever configured it otherwise.

    * The δ-group sent to neighbour ``j`` joins the entries ``j`` has
      not acknowledged and lists the sequence numbers it covers
      (``delta-seq``);
    * the receiver runs the ordinary receive rule, then acknowledges
      the covered sequence numbers (``delta-ack``);
    * an entry leaves the buffer once every neighbour that needs it has
      acknowledged it, instead of when it is sent.

    Losing a message merely delays convergence: the unacknowledged
    entries ride along with the next synchronization step.  Duplicates
    are harmless (joins are idempotent; acks are set unions).
    """

    name = "delta-based-acked"
    kind = "delta-seq"

    def __init__(
        self,
        replica: int,
        neighbors: Sequence[int],
        bottom: Lattice,
        n_nodes: int,
    ) -> None:
        super().__init__(replica, neighbors, bottom, n_nodes, bp=True, rr=True)
        #: Per-neighbour acknowledged sequence numbers.
        self.acked: Dict[int, Set[int]] = {j: set() for j in self.neighbors}

    def handle_message(self, src: int, message: Message) -> List[Send]:
        if message.kind == self.kind:
            group, covered = message.payload
            self._receive(group, src, self.rr)
            ack = Message(
                kind="delta-ack",
                payload=tuple(covered),
                payload_units=0,
                payload_bytes=0,
                metadata_bytes=len(covered) * sizes.INT_BYTES,
                metadata_units=len(covered),
            )
            return [Send(dst=src, message=ack)]
        if message.kind == "delta-ack":
            self._acknowledge(src, message.payload)
            return []
        raise ValueError(f"unexpected message kind {message.kind!r}")

    def _acknowledge(self, neighbor: int, seqs: Sequence[int]) -> None:
        """Record the acks; drop entries every relevant neighbour has acked.

        The entry's origin neighbour never needs to ack — BP never
        sends the entry back to it.
        """
        self.acked[neighbor].update(seqs)
        done = [
            seq
            for seq, (_, _, origin) in self.buffer.entries.items()
            if all(seq in self.acked[j] for j in self.neighbors if j != origin)
        ]
        for seq in done:
            del self.buffer.entries[seq]
        for acks in self.acked.values():
            acks.difference_update(done)

    def _settled(self, neighbor: int) -> Collection[int]:
        return self.acked[neighbor]

    def _envelope(self, group: Lattice, covered: Tuple[int, ...]) -> Tuple[Any, int]:
        return (group, covered), len(covered)

    def _retire_sent(self) -> None:
        """Sending proves nothing on a lossy channel; acks retire."""

    def _channel_units(self) -> int:
        """A sequence number per entry plus every recorded ack."""
        return len(self.buffer) + sum(len(acks) for acks in self.acked.values())


#: The paper's plot labels for Algorithm 1's four configurations → (bp, rr).
VARIANTS = {
    "delta-based": (False, False),
    "delta-based-bp": (True, False),
    "delta-based-rr": (False, True),
    "delta-based-bp-rr": (True, True),
}


def _factories(cls):
    """One named factory per :data:`VARIANTS` label, for the registries."""

    def bind(label: str, bp: bool, rr: bool):
        def factory(
            replica: int,
            neighbors: Sequence[int],
            bottom: Lattice,
            n_nodes: int,
        ):
            return cls(replica, neighbors, bottom, n_nodes, bp=bp, rr=rr)

        factory.__name__ = label.replace("-", "_")
        factory.name = label  # type: ignore[attr-defined]
        return factory

    return [bind(label, bp, rr) for label, (bp, rr) in VARIANTS.items()]


#: Classic, BP only, RR only, and both — the paper's best configuration.
classic, delta_bp, delta_rr, delta_bp_rr = _factories(DeltaBased)
#: The same four, per object of a ``MapLattice`` store.
keyed_classic, keyed_bp, keyed_rr, keyed_bp_rr = _factories(KeyedDeltaBased)
#: The acked variant takes no flags, so the class is its own factory.
delta_acked_factory = DeltaBasedAcked

"""Operation-based synchronization over a causal-broadcast middleware.

Operation-based CRDTs disseminate *operations* instead of states,
relying on a middleware that delivers every operation exactly once, in
causal order (Section V-B).  Each operation is tagged with its origin,
a per-origin sequence number, and a vector clock summarizing its causal
past; a replica delivers an operation only after delivering everything
the clock says precedes it.

Topologies without all-to-all connectivity need relaying.  The paper
describes — and this module implements — a store-and-forward
middleware: the first time an operation is seen it enters a
transmission buffer for further propagation; duplicates received from
other neighbours only update the record of who has seen the operation,
so unnecessary retransmissions are avoided.  An operation leaves the
buffer once every neighbour is known to have it.  The paper calls this
"the best possible implementation of such a middleware".

The operation payload shipped here is the *origin-side optimal delta*
of the update, applied at receivers by lattice join.  This preserves
the two properties the paper's comparison hinges on: payload sizes
match one-operation-per-update dissemination (one unit per increment —
the middleware cannot compress ten increments into one, unlike a lattice
join of deltas), and the metadata is a full vector clock per operation
(``NPU`` per node per round, Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro import sizes
from repro.lattice.base import Lattice
from repro.sync.protocol import DeltaMutator, Message, Send, Synchronizer

#: Operation identity: (origin replica, per-origin sequence number).
OpId = Tuple[int, int]


@dataclass
class OpEnvelope:
    """An operation in flight: payload plus causal metadata.

    Attributes:
        origin: Replica that generated the operation.
        seq: Per-origin sequence number (1-based).
        clock: Vector clock of the operation's causal past, *including*
            the operation itself at ``clock[origin] == seq``.
        payload: The origin-side delta applied at receivers by join.
    """

    origin: int
    seq: int
    clock: Dict[int, int]
    payload: Lattice

    @property
    def op_id(self) -> OpId:
        return (self.origin, self.seq)


@dataclass
class _BufferedOp:
    """A buffered envelope plus the set of nodes known to have it."""

    envelope: OpEnvelope
    seen_by: Set[int] = field(default_factory=set)


class OpBased(Synchronizer):
    """Causal broadcast with store-and-forward and duplicate suppression."""

    name = "op-based"

    def __init__(
        self,
        replica: int,
        neighbors: Sequence[int],
        bottom: Lattice,
        n_nodes: int,
    ) -> None:
        super().__init__(replica, neighbors, bottom, n_nodes)
        #: Per-origin count of causally delivered operations.
        self.delivered: Dict[int, int] = {}
        #: Transmission buffer: op id → buffered envelope.
        self.buffer: Dict[OpId, _BufferedOp] = {}
        #: Operations received but not yet causally deliverable.
        self.pending: List[Tuple[int, OpEnvelope]] = []
        # Incrementally maintained buffer sizes: memory sampling every
        # round must not rescan a buffer that scales with NPU.
        self._buffer_units = 0
        self._buffer_bytes = 0
        self._buffer_meta_bytes = 0
        self._buffer_meta_units = 0

    # ------------------------------------------------------------------
    # Local updates become self-delivered operations.
    # ------------------------------------------------------------------

    def local_update(self, delta_mutator: DeltaMutator) -> Lattice:
        delta = delta_mutator(self.state)
        if delta.is_bottom:
            return delta
        seq = self.delivered.get(self.replica, 0) + 1
        self.delivered[self.replica] = seq
        clock = dict(self.delivered)
        envelope = OpEnvelope(origin=self.replica, seq=seq, clock=clock, payload=delta)
        self.state = self.state.join(delta)
        self._buffer_put(envelope, seen_by={self.replica})
        return delta

    # ------------------------------------------------------------------
    # Periodic step: forward buffered ops to neighbours lacking them.
    # ------------------------------------------------------------------

    def sync_messages(self) -> List[Send]:
        sends: List[Send] = []
        for neighbor in self.neighbors:
            outgoing = [
                buffered.envelope
                for buffered in self.buffer.values()
                if neighbor not in buffered.seen_by
            ]
            if not outgoing:
                continue
            units = sum(env.payload.size_units() for env in outgoing)
            payload_bytes = sum(env.payload.size_bytes() for env in outgoing)
            metadata = sum(self._envelope_metadata_bytes(env) for env in outgoing)
            metadata_units = sum(1 + len(env.clock) for env in outgoing)
            sends.append(
                Send(
                    dst=neighbor,
                    message=Message(
                        kind="ops",
                        payload=list(outgoing),
                        payload_units=units,
                        payload_bytes=payload_bytes,
                        metadata_bytes=metadata,
                        metadata_units=metadata_units,
                    ),
                )
            )
            # Channels are reliable (paper assumption): once pushed, the
            # neighbour will have it — record that to avoid re-sending.
            for buffered in self.buffer.values():
                if neighbor not in buffered.seen_by:
                    buffered.seen_by.add(neighbor)
        self._prune_buffer()
        return sends

    # ------------------------------------------------------------------
    # Receiving: deduplicate, causally deliver, store-and-forward.
    # ------------------------------------------------------------------

    def handle_message(self, src: int, message: Message) -> List[Send]:
        if message.kind != "ops":
            raise ValueError(f"unexpected message kind {message.kind!r}")
        for envelope in message.payload:
            already = self.buffer.get(envelope.op_id)
            if already is not None:
                # Duplicate from another path: remember src has it.
                already.seen_by.add(src)
                continue
            if envelope.seq <= self.delivered.get(envelope.origin, 0):
                continue  # delivered and already pruned from the buffer
            self.pending.append((src, envelope))
        self._deliver_ready()
        self._prune_buffer()
        return []

    def _deliver_ready(self) -> None:
        """Deliver pending operations respecting causal order."""
        progress = True
        while progress:
            progress = False
            still_pending: List[Tuple[int, OpEnvelope]] = []
            for src, envelope in self.pending:
                if envelope.seq <= self.delivered.get(envelope.origin, 0):
                    continue  # duplicate surfaced while waiting
                if self._causally_ready(envelope):
                    self._deliver(src, envelope)
                    progress = True
                else:
                    still_pending.append((src, envelope))
            self.pending = still_pending

    def _causally_ready(self, envelope: OpEnvelope) -> bool:
        """Standard causal-delivery condition on vector clocks."""
        for node, count in envelope.clock.items():
            if node == envelope.origin:
                if self.delivered.get(node, 0) != count - 1:
                    return False
            elif self.delivered.get(node, 0) < count:
                return False
        return True

    def _deliver(self, src: int, envelope: OpEnvelope) -> None:
        self.state = self.state.join(envelope.payload)
        self.delivered[envelope.origin] = envelope.seq
        self._buffer_put(envelope, seen_by={self.replica, src, envelope.origin})

    def _prune_buffer(self) -> None:
        """Drop operations every neighbour already has."""
        neighbor_set = set(self.neighbors)
        done = [
            op_id
            for op_id, buffered in self.buffer.items()
            if neighbor_set <= buffered.seen_by
        ]
        for op_id in done:
            self._buffer_del(op_id)

    # ------------------------------------------------------------------
    # Memory accounting.
    # ------------------------------------------------------------------

    def buffer_units(self) -> int:
        waiting = sum(env.payload.size_units() for _, env in self.pending)
        return self._buffer_units + waiting

    def buffer_bytes(self) -> int:
        waiting = sum(env.payload.size_bytes() for _, env in self.pending)
        return self._buffer_bytes + waiting

    def metadata_bytes(self) -> int:
        """Vector clocks on buffered/pending ops plus the delivered vector."""
        waiting = sum(self._envelope_metadata_bytes(env) for _, env in self.pending)
        delivered_vector = sizes.vector_bytes(len(self.delivered))
        return self._buffer_meta_bytes + waiting + delivered_vector

    def metadata_units(self) -> int:
        """Clock/id entries on buffered and pending ops plus the
        delivered vector."""
        waiting = sum(1 + len(env.clock) for _, env in self.pending)
        return self._buffer_meta_units + waiting + len(self.delivered)

    def _buffer_put(self, envelope: OpEnvelope, seen_by: Set[int]) -> None:
        """Insert an op, keeping the incremental size counters exact."""
        assert envelope.op_id not in self.buffer, "op ids are unique"
        self.buffer[envelope.op_id] = _BufferedOp(envelope, seen_by=seen_by)
        self._buffer_units += envelope.payload.size_units()
        self._buffer_bytes += envelope.payload.size_bytes()
        self._buffer_meta_bytes += self._envelope_metadata_bytes(envelope)
        self._buffer_meta_units += 1 + len(envelope.clock)

    def _buffer_del(self, op_id: OpId) -> None:
        """Remove an op, keeping the incremental size counters exact."""
        buffered = self.buffer.pop(op_id)
        envelope = buffered.envelope
        self._buffer_units -= envelope.payload.size_units()
        self._buffer_bytes -= envelope.payload.size_bytes()
        self._buffer_meta_bytes -= self._envelope_metadata_bytes(envelope)
        self._buffer_meta_units -= 1 + len(envelope.clock)

    def _envelope_metadata_bytes(self, envelope: OpEnvelope) -> int:
        op_id = sizes.ID_BYTES + sizes.INT_BYTES
        clock = sizes.vector_bytes(len(envelope.clock))
        return op_id + clock

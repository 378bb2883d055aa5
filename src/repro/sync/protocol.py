"""The synchronizer interface shared by every protocol.

A :class:`Synchronizer` is one replica's view of a synchronization
protocol.  It is transport-neutral: a hosting runtime — the
deterministic simulator, real asyncio TCP sockets, anything
implementing :class:`repro.net.transport.Transport` — drives it
through three entry points:

* :meth:`~Synchronizer.local_update` — the application performed an
  update operation on the replicated object;
* :meth:`~Synchronizer.sync_messages` — the periodic synchronization
  timer fired; return the messages to push to neighbours;
* :meth:`~Synchronizer.handle_message` — a message arrived; return any
  immediate replies (pull-based protocols answer digests here).

Updates arrive as *δ-mutator closures*: callables from the current
lattice state to the optimal delta of the mutation (Section III-B).
Every protocol consumes the same closure —

* state-based joins the delta and ships full states,
* delta-based joins it and also buffers it,
* Scuttlebutt stores it under a fresh version,
* op-based wraps it in a causally-tagged envelope —

so a single workload definition drives all protocols identically, which
is what makes the paper's cross-algorithm comparisons meaningful.

Messages carry explicit size accounting (payload units, payload bytes,
metadata bytes) because the evaluation measures exactly those three
quantities (Sections V-B.1, V-B.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, List, Optional, Sequence

from repro.lattice.base import Lattice
from repro.sizes import SizeModel, DEFAULT_SIZE_MODEL

#: A δ-mutator closure: current state → optimal delta to join in.
#:
#: A δ-mutator is a pure function that neither returns nor keeps its
#: argument.  The δ may share the state's immutable values, but a
#: delta-based replica hands the δ-mutator the one value it may still
#: join into in place (see :attr:`Synchronizer.state`): a δ that *is*
#: the state, or a reference kept past the call, would see it change.
DeltaMutator = Callable[[Lattice], Lattice]


@dataclass(frozen=True)
class Message:
    """A protocol message with explicit size accounting.

    Attributes:
        kind: Protocol-specific discriminator (``"state"``, ``"delta"``,
            ``"digest"``, ``"deltas"``, ``"ops"``).
        payload: Protocol-specific content.
        payload_units: Payload size in the paper's unit metric (set
            elements / map entries); metadata does not count.
        payload_bytes: Payload size in bytes under the size model.
        metadata_bytes: Synchronization metadata in bytes — version
            vectors, version keys, sequence numbers, knowledge matrices.
        metadata_units: The same metadata in the paper's entry metric
            (one unit per vector/matrix entry or version key).  The
            Figure 7/8 transmission plots count these entries alongside
            the payload, which is how Scuttlebutt and op-based lose to
            state-based on the GCounter despite precise payloads.
    """

    kind: str
    payload: Any
    payload_units: int
    payload_bytes: int
    metadata_bytes: int
    metadata_units: int = 0

    @property
    def total_bytes(self) -> int:
        """Payload plus metadata — what actually crosses the wire."""
        return self.payload_bytes + self.metadata_bytes

    @property
    def total_units(self) -> int:
        """Payload plus metadata in the entry metric."""
        return self.payload_units + self.metadata_units


@dataclass(frozen=True)
class Send:
    """An outbound message addressed to a neighbour."""

    dst: int
    message: Message


class Synchronizer(ABC):
    """One replica's instance of a synchronization protocol.

    Subclasses set :attr:`name` to the label used in the paper's plots
    and implement the three event handlers plus memory accounting.

    The replica *owns* the state value it built until someone else reads
    it: :attr:`state` hands the value out (and assigning it replaces the
    value), and either ends ownership.  While ``_owned`` holds, no one
    but this replica can reach ``_state``, so a protocol may inflate it
    in place (:meth:`repro.sync.deltabased.DeltaBased._store`); a value
    once handed out never changes again.  The memory accessors read
    ``_state`` and keep ownership.

    Args:
        replica: This replica's index in ``0..n_nodes-1``.
        neighbors: Indices of the replicas this node may talk to.
        bottom: The bottom element of the replicated lattice; the
            initial state of every replica.
        n_nodes: Total number of replicas (vector-based protocols size
            their metadata with it).
        size_model: Byte-size model for payload/metadata accounting.
    """

    name: ClassVar[str] = "abstract"

    def __init__(
        self,
        replica: int,
        neighbors: Sequence[int],
        bottom: Lattice,
        n_nodes: int,
        size_model: SizeModel = DEFAULT_SIZE_MODEL,
    ) -> None:
        self.replica = replica
        self.neighbors = tuple(neighbors)
        # Through the setter: the shared ``bottom`` is never owned.
        self.state = bottom
        self.bottom = bottom
        self.n_nodes = n_nodes
        self.size_model = size_model

    @property
    def state(self) -> Lattice:
        """The replica's lattice state, handed out: it will not change."""
        self._owned = False
        return self._state

    @state.setter
    def state(self, value: Lattice) -> None:
        self._state = value
        self._owned = False

    # ------------------------------------------------------------------
    # Event handlers driven by the hosting runtime (any transport).
    # ------------------------------------------------------------------

    @abstractmethod
    def local_update(self, delta_mutator: DeltaMutator) -> Lattice:
        """Apply an update operation locally; return the delta produced."""

    @abstractmethod
    def sync_messages(self) -> List[Send]:
        """The periodic synchronization step (one timer tick)."""

    @abstractmethod
    def handle_message(self, src: int, message: Message) -> List[Send]:
        """Process an incoming message; return immediate replies."""

    def absorb_state(self, state: Lattice, src: Optional[int] = None) -> Lattice:
        """Absorb a peer's (full or partial) state outside normal sync.

        Store-level anti-entropy repair delivers lattice states that did
        not travel through this protocol's own message kinds — a full
        shard state pushed after a crash, or the inflating decomposition
        computed from a digest exchange.  Assigning ``self.state``
        directly would bypass the protocol's bookkeeping (δ-buffers,
        version vectors), so repair must flow through this hook instead.

        Args:
            state: The lattice content to absorb (joined in).
            src: The replica the content arrived from, when known.

        Returns:
            The delta that strictly inflated the local state (bottom
            when nothing was new).

        The default — extract the novelty ``∆(state, xᵢ)`` and join it —
        is exact for protocols whose only synchronization state *is* the
        lattice (state-based, Merkle); protocols with buffers or version
        vectors override it to keep their bookkeeping truthful.
        """
        delta = state.delta(self.state)
        if not delta.is_bottom:
            self.state = self.state.join(delta)
        return delta

    # ------------------------------------------------------------------
    # Memory accounting (Section V-B.3).
    # ------------------------------------------------------------------

    def state_units(self) -> int:
        """CRDT state size in the unit metric."""
        return self._state.size_units()

    def state_bytes(self) -> int:
        """CRDT state size in bytes."""
        return self._state.size_bytes(self.size_model)

    @abstractmethod
    def buffer_units(self) -> int:
        """Synchronization payload retained in memory, in units.

        The δ-buffer for delta-based, the delta store for Scuttlebutt,
        the transmission buffer for op-based; zero for state-based.
        """

    @abstractmethod
    def metadata_bytes(self) -> int:
        """Synchronization metadata retained in memory, in bytes."""

    @abstractmethod
    def metadata_units(self) -> int:
        """Resident synchronization metadata in the entry metric."""

    def memory_units(self) -> int:
        """Total resident units: state, buffered payload, metadata."""
        return self.state_units() + self.buffer_units() + self.metadata_units()

    def memory_bytes(self) -> int:
        """Total resident bytes: state, buffered payload, and metadata."""
        return self.state_bytes() + self.buffer_bytes() + self.metadata_bytes()

    @abstractmethod
    def buffer_bytes(self) -> int:
        """Byte size of the buffered synchronization payload."""

    # ------------------------------------------------------------------
    # Helpers shared by subclasses.
    # ------------------------------------------------------------------

    def _payload_sizes(self, value: Lattice) -> tuple[int, int]:
        """(units, bytes) of a lattice payload under the size model."""
        return value.size_units(), value.size_bytes(self.size_model)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(replica={self.replica})"


#: A callable building a synchronizer for one node of a cluster.
#:
#: Factories are invoked with keyword arguments — ``replica=``,
#: ``neighbors=``, ``bottom=``, ``n_nodes=``, ``size_model=`` — so a
#: runtime-built replica can never silently transpose positional
#: arguments; every factory must use exactly these parameter names.
SynchronizerFactory = Callable[[int, Sequence[int], Lattice, int, SizeModel], Synchronizer]

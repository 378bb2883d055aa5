"""Measurement of transmission, memory, and processing cost.

The paper's evaluation measures three quantities (Section V):

* **transmission** — what crosses the wire, split into payload (in the
  unit metric of Table I and in bytes) and synchronization metadata
  (Figure 9 measures the metadata share);
* **memory** — CRDT state plus synchronization buffers and metadata
  resident at each node, sampled periodically (Figure 10);
* **processing** — CPU time spent producing and processing
  synchronization messages (Figures 1 and 12).  Wall-clock timings are
  recorded alongside a deterministic *element-count proxy* (lattice
  units produced plus processed), which reproduces the paper's ratios
  on any machine because both are driven by message sizes.

Every message and memory sample is kept as a record, so experiment
drivers can slice series over time (Figure 1's time axis, Figure 11's
first/second-half split) without re-running simulations.  A record is
a ``NamedTuple``: immutable, and built once per message and per sample
for a fraction of a frozen dataclass's cost.

The collector is the one place a wire event is recorded.
:meth:`MetricsCollector.record_message` keeps the record and, when the
run is traced, writes the ``send`` line from that same record;
:meth:`MetricsCollector.record_loss` counts a dropped, severed or
refused send under its trace event type and writes that event.  The
trace, the loss counts and the transmission totals therefore read one
record, and :func:`repro.sim.series.wire_totals` is the one fold behind
both :meth:`MetricsCollector.totals` and
:func:`repro.obs.report.trace_totals`.  Memory samples keep a list of
their own, and processing costs a tally per node.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.trace import SEND
from repro.sim.series import bucket_series, cumulative, partition_at, wire_totals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Tracer


class MessageRecord(NamedTuple):
    """One message on the wire."""

    time: float
    src: int
    dst: int
    kind: str
    payload_units: int
    payload_bytes: int
    metadata_bytes: int
    metadata_units: int = 0

    @property
    def total_units(self) -> int:
        return self.payload_units + self.metadata_units


class MemorySample(NamedTuple):
    """One node's resident footprint at a sample instant."""

    time: float
    node: int
    state_units: int
    buffer_units: int
    state_bytes: int
    buffer_bytes: int
    metadata_bytes: int
    metadata_units: int = 0

    @property
    def total_units(self) -> int:
        return self.state_units + self.buffer_units + self.metadata_units

    @property
    def total_bytes(self) -> int:
        return self.state_bytes + self.buffer_bytes + self.metadata_bytes


@dataclass
class NodeMetrics:
    """Per-node processing cost, accumulated as the simulation runs."""

    processing_units: int = 0
    processing_seconds: float = 0.0


class MetricsCollector:
    """Collects message records, losses, memory samples, and processing costs."""

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        #: Structured trace sink, attached by the cluster (or replica
        #: process) when tracing is enabled; the transport reads it from
        #: here, so the tracer has one holder.  ``None`` (the default)
        #: must stay ``None``: one attribute check is the entire
        #: disabled-tracing cost.
        self.tracer: Optional["Tracer"] = None
        self.messages: List[MessageRecord] = []
        self.memory: List[MemorySample] = []
        #: Sends the network lost or refused, keyed by their trace event
        #: type: ``message-dropped`` (the loss model ate it),
        #: ``message-severed`` (a fault killed it in flight) and
        #: ``send-blocked`` (refused before it reached the wire).
        self.losses: Counter = Counter()
        #: Keyed by replica id, created at a node's first record: a
        #: replica process learns of seats added after it booted.
        self.per_node: Dict[int, NodeMetrics] = defaultdict(NodeMetrics)

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def record_message(self, record: MessageRecord) -> None:
        """Keep one transmitted message; trace it as its ``send``."""
        self.messages.append(record)
        if self.tracer is not None:
            self.tracer.emit(
                SEND,
                time=record.time,
                replica=record.src,
                peer=record.dst,
                kind=record.kind,
                payload_bytes=record.payload_bytes,
                metadata_bytes=record.metadata_bytes,
                payload_units=record.payload_units,
                metadata_units=record.metadata_units,
            )

    def record_loss(self, type: str, src: int, dst: int, kind: str) -> None:
        """Count one lost or refused ``src → dst`` send; trace it as ``type``."""
        self.losses[type] += 1
        if self.tracer is not None:
            self.tracer.emit(type, replica=src, peer=dst, kind=kind)

    def record_processing(self, node: int, units: int, seconds: float) -> None:
        entry = self.per_node[node]
        entry.processing_units += units
        entry.processing_seconds += seconds

    def record_memory(self, sample: MemorySample) -> None:
        self.memory.append(sample)

    # ------------------------------------------------------------------
    # Transmission aggregates.
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, int]:
        """``messages`` and the payload/metadata byte and unit sums."""
        return wire_totals(self.messages)

    @property
    def message_count(self) -> int:
        return len(self.messages)

    def total_payload_bytes(self) -> int:
        return sum(r.payload_bytes for r in self.messages)

    def total_metadata_bytes(self) -> int:
        return sum(r.metadata_bytes for r in self.messages)

    def total_bytes(self) -> int:
        return self.total_payload_bytes() + self.total_metadata_bytes()

    def metadata_fraction(self) -> float:
        """Share of all transmitted bytes that is metadata (Figure 9)."""
        total = self.total_bytes()
        return self.total_metadata_bytes() / total if total else 0.0

    # ------------------------------------------------------------------
    # Time-sliced views.
    # ------------------------------------------------------------------

    def units_series(self, window_ms: float) -> List[Tuple[float, int]]:
        """Payload units sent per time window — Figure 1's left plot."""
        return bucket_series(
            self.messages,
            window_ms,
            time=lambda r: r.time,
            value=lambda r: r.payload_units,
        )

    def cumulative_units_series(self, window_ms: float) -> List[Tuple[float, int]]:
        """Running total of payload units over time."""
        return cumulative(self.units_series(window_ms))

    def split_at(self, time: float) -> Tuple["MetricsCollector", "MetricsCollector"]:
        """Split records into before/after ``time`` (Figure 11 halves)."""
        first = MetricsCollector(self.n_nodes)
        second = MetricsCollector(self.n_nodes)
        first.messages, second.messages = partition_at(self.messages, time, time=lambda r: r.time)
        first.memory, second.memory = partition_at(self.memory, time, time=lambda s: s.time)
        return first, second

    def last_time(self) -> float:
        return max(
            (records[-1].time for records in (self.messages, self.memory) if records), default=0.0
        )

    # ------------------------------------------------------------------
    # Memory aggregates (Figure 10/11).
    # ------------------------------------------------------------------

    def average_memory_units(self) -> float:
        """Mean resident units across all samples and nodes."""
        if not self.memory:
            return 0.0
        return sum(sample.total_units for sample in self.memory) / len(self.memory)

    def average_memory_bytes(self) -> float:
        if not self.memory:
            return 0.0
        return sum(sample.total_bytes for sample in self.memory) / len(self.memory)

    # ------------------------------------------------------------------
    # Processing aggregates (Figures 1 and 12).
    # ------------------------------------------------------------------

    def total_processing_units(self) -> int:
        return sum(entry.processing_units for entry in self.per_node.values())

    def total_processing_seconds(self) -> float:
        return sum(entry.processing_seconds for entry in self.per_node.values())

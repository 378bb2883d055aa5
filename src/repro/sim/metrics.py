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
first/second-half split) without re-running simulations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.series import bucket_series, cumulative, partition_at


@dataclass(frozen=True)
class MessageRecord:
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


@dataclass(frozen=True)
class MemorySample:
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
    """Collects message records, memory samples, and processing costs."""

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self.messages: List[MessageRecord] = []
        self.memory: List[MemorySample] = []
        #: Keyed by replica id, created at a node's first record: a
        #: replica process learns of seats added after it booted.
        self.per_node: Dict[int, NodeMetrics] = defaultdict(NodeMetrics)

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def record_message(self, record: MessageRecord) -> None:
        self.messages.append(record)

    def record_processing(self, node: int, units: int, seconds: float) -> None:
        entry = self.per_node[node]
        entry.processing_units += units
        entry.processing_seconds += seconds

    def record_memory(self, sample: MemorySample) -> None:
        self.memory.append(sample)

    # ------------------------------------------------------------------
    # Transmission aggregates.
    # ------------------------------------------------------------------

    @property
    def message_count(self) -> int:
        return len(self.messages)

    def total_payload_units(self) -> int:
        return sum(r.payload_units for r in self.messages)

    def total_metadata_units(self) -> int:
        return sum(r.metadata_units for r in self.messages)

    def total_transmission_units(self) -> int:
        """Payload plus metadata entries — the Figure 7/8 metric."""
        return self.total_payload_units() + self.total_metadata_units()

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

    def metadata_bytes_per_node(self) -> float:
        return self.total_metadata_bytes() / self.n_nodes

    def bytes_per_node(self) -> float:
        return self.total_bytes() / self.n_nodes

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
        early, late = partition_at(self.messages, time, time=lambda r: r.time)
        for record in early:
            first.record_message(record)
        for record in late:
            second.record_message(record)
        early, late = partition_at(self.memory, time, time=lambda s: s.time)
        for sample in early:
            first.record_memory(sample)
        for sample in late:
            second.record_memory(sample)
        return first, second

    def last_time(self) -> float:
        latest = 0.0
        if self.messages:
            latest = max(latest, self.messages[-1].time)
        if self.memory:
            latest = max(latest, self.memory[-1].time)
        return latest

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

    def peak_memory_bytes(self) -> int:
        return max((sample.total_bytes for sample in self.memory), default=0)

    def final_memory_units(self) -> float:
        """Mean resident units over the last sample of every node."""
        latest: Dict[int, MemorySample] = {}
        for sample in self.memory:
            latest[sample.node] = sample
        if not latest:
            return 0.0
        return sum(sample.total_units for sample in latest.values()) / len(latest)

    # ------------------------------------------------------------------
    # Processing aggregates (Figures 1 and 12).
    # ------------------------------------------------------------------

    def total_processing_units(self) -> int:
        return sum(entry.processing_units for entry in self.per_node.values())

    def total_processing_seconds(self) -> float:
        return sum(entry.processing_seconds for entry in self.per_node.values())

"""The structured trace: an append-only JSONL stream of typed events.

The metrics registry (:mod:`repro.obs.metrics`) answers *how much* —
total repair bytes, handoff segments, WAL commits.  The trace answers
*why*: every byte that moves is attributable to an event — a scheduled
sync send, a digest probe that missed, a handoff segment, a WAL replay —
each stamped with the replica, shard, round, and wall-clock time it
happened at.  The experiment tables can therefore be *re-derived from
the trace file alone* and cross-checked against the live counters,
which is the property the integration tests pin down.

Design mirrors :mod:`repro.wal.storage`: a tiny :class:`TraceSink`
interface with a memory backend for the deterministic tests and a file
backend for real runs, written against by a single :class:`Tracer`
front-end that the cluster threads through every layer.  Tracing is
**off by default and zero-cost when off**: call sites hold ``tracer``
attributes that are simply ``None``, guarded by one attribute check —
no no-op object, no dormant format strings.

One line of the stream is one event, encoded as compact JSON with
sorted keys and defaults omitted, so seeded runs produce byte-identical
trace files.
"""

from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

# Every event type the stack can emit, one constant each.  Emitters and
# readers import the constant by name (``from repro.obs.trace import
# SEND``), so a misspelt event fails at import rather than in a traced
# run.  ``decode_event`` accepts any type (readers of old traces),
# while ``Tracer.emit`` rejects types outside :data:`EVENT_TYPES`.

# transport
ROUND = "round"  # a synchronization round completed
SEND = "send"  # a message admitted to the wire (counted even if lost)
DELIVER = "deliver"  # a message handed to the destination runtime
MESSAGE_DROPPED = "message-dropped"  # admitted but lost to the loss model
MESSAGE_SEVERED = "message-severed"  # in flight when the link went down
SEND_BLOCKED = "send-blocked"  # refused admission (dead link / crashed peer)
# faults and membership
CRASH = "crash"
RECOVER = "recover"
PARTITION = "partition"
HEAL = "heal"
RING_CHANGE = "ring-change"  # replicas added/removed from the hash ring
# digest-repair escalation (root probe → fingerprint diff → payload)
REPAIR_PROBE = "repair-probe"
REPAIR_DIFF = "repair-diff"
REPAIR_ABSORB = "repair-absorb"
# live rebalancing
HANDOFF_OFFER = "handoff-offer"
HANDOFF_SEGMENT = "handoff-segment"
HANDOFF_ACK = "handoff-ack"
HANDOFF_FENCE = "handoff-fence"
# write-ahead log
WAL_COMMIT = "wal-commit"
WAL_COMPACT = "wal-compact"
WAL_REPLAY = "wal-replay"
# probes and experiment structure
LAG = "lag"  # a shard's root-hash disagreement window closed
CELL_START = "cell-start"  # an experiment cell began (label = algorithm/mode)
CELL_END = "cell-end"
# client front end (repro.serve)
CLIENT_OP = "client-op"  # a client request served (kind = get/put/remove/...)
READ_REPAIR = "read-repair"  # client-pushed repair state absorbed by a replica

#: The catalogue, in declaration order.
EVENT_TYPES = (
    ROUND,
    SEND,
    DELIVER,
    MESSAGE_DROPPED,
    MESSAGE_SEVERED,
    SEND_BLOCKED,
    CRASH,
    RECOVER,
    PARTITION,
    HEAL,
    RING_CHANGE,
    REPAIR_PROBE,
    REPAIR_DIFF,
    REPAIR_ABSORB,
    HANDOFF_OFFER,
    HANDOFF_SEGMENT,
    HANDOFF_ACK,
    HANDOFF_FENCE,
    WAL_COMMIT,
    WAL_COMPACT,
    WAL_REPLAY,
    LAG,
    CELL_START,
    CELL_END,
    CLIENT_OP,
    READ_REPAIR,
)

_EVENT_TYPE_SET = frozenset(EVENT_TYPES)


@dataclass(frozen=True)
class TraceEvent:
    """One event of the stream.

    Only ``type`` and ``time`` are always meaningful; the remaining
    fields default to "absent" (``None`` / ``0`` / ``{}``) and are
    omitted from the encoded line, keeping traffic-heavy traces small.

    Attributes:
        type: One of :data:`EVENT_TYPES`.
        time: Transport wall-clock, in the transport's milliseconds.
        round: Synchronization round the event belongs to, when known.
        replica: The replica the event happened *at* (the sender for
            wire events).
        shard: The shard involved, for store/WAL/handoff events.
        peer: The other replica of a pairwise event (the destination
            for wire events, the source for absorb/handoff events).
        kind: The wire kind (``"kv-batch"``, ``"delta"``, …) for
            message events.
        payload_bytes / metadata_bytes: Byte accounting, same split as
            :class:`repro.sync.protocol.Message`.
        payload_units / metadata_units: The paper's element-count
            accounting.
        label: Free-form tag (algorithm name for ``cell-start``).
        origin: The replica whose process *wrote* this event.  In
            single-process runs this stays ``None`` (one stream, one
            writer); multi-process runs stamp it so per-process trace
            files can be merged offline without losing attribution.
        extra: Event-specific JSON-native details.
    """

    type: str
    time: float = 0.0
    round: Optional[int] = None
    replica: Optional[int] = None
    shard: Optional[int] = None
    peer: Optional[int] = None
    kind: Optional[str] = None
    payload_bytes: int = 0
    metadata_bytes: int = 0
    payload_units: int = 0
    metadata_units: int = 0
    label: Optional[str] = None
    origin: Optional[int] = None
    extra: Dict[str, Any] = field(default_factory=dict)


_DEFAULTS = {
    "time": 0.0,
    "round": None,
    "replica": None,
    "shard": None,
    "peer": None,
    "kind": None,
    "payload_bytes": 0,
    "metadata_bytes": 0,
    "payload_units": 0,
    "metadata_units": 0,
    "label": None,
    "origin": None,
}

_FIELD_NAMES = tuple(f.name for f in fields(TraceEvent))


def encode_event(event: TraceEvent) -> str:
    """One compact, deterministic JSON line (no trailing newline).

    Fields holding their default are omitted; keys are sorted; no
    whitespace — so identical events encode to identical bytes and
    seeded runs produce byte-identical trace files.
    """
    record: Dict[str, Any] = {"type": event.type}
    for name, default in _DEFAULTS.items():
        value = getattr(event, name)
        if value != default:
            record[name] = value
    if event.extra:
        record["extra"] = event.extra
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def decode_event(line: str) -> TraceEvent:
    """Parse one line back into a :class:`TraceEvent`.

    Unknown keys are ignored (newer writers, older readers); missing
    keys take their defaults, so ``decode(encode(e)) == e`` for every
    event whose ``extra`` is JSON-native (tuples come back as lists).
    """
    record = json.loads(line)
    if not isinstance(record, dict) or "type" not in record:
        raise ValueError(f"not a trace event: {line!r}")
    kwargs = {key: record[key] for key in _FIELD_NAMES if key in record}
    return TraceEvent(**kwargs)


class TraceSink(ABC):
    """Where encoded event lines go; mirrors :class:`repro.wal.Storage`."""

    @abstractmethod
    def write(self, line: str) -> None:
        """Append one encoded event line to the stream."""

    def close(self) -> None:
        """Release any resources (a no-op for memory sinks)."""


class MemoryTraceSink(TraceSink):
    """Encoded lines in a list — the deterministic tests' backend."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def write(self, line: str) -> None:
        self.lines.append(line)

    def __len__(self) -> int:
        return len(self.lines)

    def __repr__(self) -> str:
        return f"MemoryTraceSink(events={len(self.lines)})"


class FileTraceSink(TraceSink):
    """Append-only JSONL file, truncated at construction.

    Lines are flushed as they are written so a crashed run leaves a
    readable (if truncated) trace — the same posture as the WAL's
    group commit, minus the fsync (traces are diagnostics, not
    durability).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "w", encoding="utf-8")

    def write(self, line: str) -> None:
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __repr__(self) -> str:
        return f"FileTraceSink(path={self.path!r})"


class Tracer:
    """The emission front-end every instrumented layer holds.

    A cluster builds one tracer and binds it to the transport's clock
    and round counter; every layer then emits through it without
    knowing what time it is.  Call sites never construct
    :class:`TraceEvent` themselves — :meth:`emit` fills in the ambient
    time and round.
    """

    def __init__(self, sink: TraceSink, *, origin: Optional[int] = None) -> None:
        self.sink = sink
        self.origin = origin
        self.events_written = 0
        self._clock: Callable[[], float] = lambda: 0.0
        self._rounds: Callable[[], Optional[int]] = lambda: None

    def bind(
        self,
        clock: Callable[[], float],
        rounds: Optional[Callable[[], Optional[int]]] = None,
    ) -> None:
        """Attach the ambient wall-clock (and round counter) sources."""
        self._clock = clock
        if rounds is not None:
            self._rounds = rounds

    def emit(
        self,
        type: str,
        *,
        time: Optional[float] = None,
        round: Optional[int] = None,
        replica: Optional[int] = None,
        shard: Optional[int] = None,
        peer: Optional[int] = None,
        kind: Optional[str] = None,
        payload_bytes: int = 0,
        metadata_bytes: int = 0,
        payload_units: int = 0,
        metadata_units: int = 0,
        label: Optional[str] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> TraceEvent:
        """Stamp, encode, and sink one event; returns it for tests."""
        if type not in _EVENT_TYPE_SET:
            raise ValueError(f"unknown trace event type {type!r}")
        event = TraceEvent(
            type=type,
            time=self._clock() if time is None else time,
            round=self._rounds() if round is None else round,
            replica=replica,
            shard=shard,
            peer=peer,
            kind=kind,
            payload_bytes=payload_bytes,
            metadata_bytes=metadata_bytes,
            payload_units=payload_units,
            metadata_units=metadata_units,
            label=label,
            origin=self.origin,
            extra=extra or {},
        )
        self.sink.write(encode_event(event))
        self.events_written += 1
        return event

    def close(self) -> None:
        self.sink.close()

    def __repr__(self) -> str:
        return f"Tracer(sink={self.sink!r}, events={self.events_written})"


def read_trace(source: Union[str, TraceSink, Iterable[str]]) -> List[TraceEvent]:
    """Decode a whole trace from a file path, a sink, or raw lines.

    A path naming a *directory* is treated as a set of per-process
    trace files and merged via :func:`read_trace_dir`.

    Blank lines are skipped (a crashed writer's partial final line will
    instead raise — a trace that lies is worse than one that fails).
    """
    if isinstance(source, str):
        if os.path.isdir(source):
            return read_trace_dir(source)
        with open(source, "r", encoding="utf-8") as handle:
            lines: Iterable[str] = handle.read().splitlines()
    elif isinstance(source, MemoryTraceSink):
        lines = source.lines
    elif isinstance(source, TraceSink):
        raise TypeError(f"cannot read back from {type(source).__name__}")
    else:
        lines = source
    return [decode_event(line) for line in lines if line.strip()]


def read_trace_dir(path: str) -> List[TraceEvent]:
    """Merge a directory of per-process ``.jsonl`` traces into one stream.

    Each replica process writes its own file (clocks start at process
    boot, so raw times are only comparable *within* a file); the merge
    therefore orders by ``(round, time)`` — the round counter is the
    cluster-wide logical clock the controller distributes — with the
    origin replica as the tie-break.  Events missing a round (boot-time
    replays, client ops between rounds) sort by time alone within
    round ``-1``.
    """
    events: List[TraceEvent] = []
    for name in sorted(os.listdir(path)):
        if name.startswith(".") or not name.endswith(".jsonl"):
            continue
        full = os.path.join(path, name)
        if os.path.isfile(full):
            events.extend(read_trace(full))
    events.sort(
        key=lambda e: (
            -1 if e.round is None else e.round,
            e.time,
            -1 if e.origin is None else e.origin,
        )
    )
    return events

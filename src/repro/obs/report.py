"""Trace post-processing: derive the experiment tables from the file.

Everything here operates on a decoded list of
:class:`~repro.obs.trace.TraceEvent` — no simulator, no cluster.  That
is the point: a traced run (a kv config's ``trace`` field) leaves a
JSONL file from which the byte totals of the kv_repair/kv_rebalance
tables can be *re-derived and cross-checked* against the live counters, and
``python -m repro trace report`` renders a human timeline of what the
run did, phase by phase.

The only totals source is the ``send`` event.  The collector writes
it from the :class:`~repro.sim.metrics.MessageRecord` it keeps, in the
same call (before the loss coin flip), and :func:`trace_totals` folds
those events with the collector's own fold — so trace-derived totals
equal ``MetricsCollector.totals()`` on the simulated and the real TCP
transport alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.trace import (
    CELL_START,
    CRASH,
    HANDOFF_ACK,
    HANDOFF_OFFER,
    HANDOFF_SEGMENT,
    HEAL,
    LAG,
    MESSAGE_DROPPED,
    PARTITION,
    RECOVER,
    REPAIR_ABSORB,
    REPAIR_DIFF,
    REPAIR_PROBE,
    RING_CHANGE,
    SEND,
    TraceEvent,
)
from repro.sim.series import wire_totals


def _table_helpers():
    # Imported lazily: repro.experiments pulls in the simulator and the
    # kv package, whose modules import repro.obs at module level —
    # a top-level import here would close that cycle.
    from repro.experiments.report import format_table, human_bytes

    return format_table, human_bytes

#: Store-level events of the digest-repair escalation, in escalation
#: order (root probe → fingerprint diff → inflating repair delta).
#: The scheduler batches inner repair messages into ``kv-batch``
#: envelopes on the wire, so repair traffic is only visible at these
#: deliver-side events — which carry the inner message's byte fields.
REPAIR_EVENTS = (REPAIR_PROBE, REPAIR_DIFF, REPAIR_ABSORB)

#: Store-level events of live rebalancing's shard handoff protocol.
HANDOFF_EVENTS = (HANDOFF_OFFER, HANDOFF_SEGMENT, HANDOFF_ACK)

#: Event types that open a new phase in the timeline, and the phase
#: label each one starts.
_PHASE_MARKERS = {
    CRASH: "crash",
    RECOVER: "recovery",
    PARTITION: "partition",
    HEAL: "healed",
    RING_CHANGE: "rebalance",
}


def trace_totals(events: List[TraceEvent]) -> Dict[str, int]:
    """Transmission totals re-derived from ``send`` events alone.

    The fold is :func:`repro.sim.series.wire_totals`, the one behind
    :meth:`MetricsCollector.totals`, so the keys and sums are the
    collector's: ``messages``, ``payload_bytes``, ``metadata_bytes``,
    ``payload_units``, ``metadata_units``.
    """
    return wire_totals(event for event in events if event.type == SEND)


def split_cells(
    events: List[TraceEvent],
) -> List[Tuple[Optional[str], List[TraceEvent]]]:
    """Group a trace by its ``cell-start`` markers.

    Returns ``[(label, events), ...]`` in stream order.  Events before
    the first marker (a trace produced without the experiment drivers)
    form one unlabeled cell, so every event belongs to exactly one
    group.
    """
    cells: List[Tuple[Optional[str], List[TraceEvent]]] = []
    current: List[TraceEvent] = []
    label: Optional[str] = None
    for event in events:
        if event.type == CELL_START:
            if current:
                cells.append((label, current))
            label = event.label
            current = [event]
        else:
            current.append(event)
    if current:
        cells.append((label, current))
    return cells


def segment_phases(
    events: List[TraceEvent],
) -> List[Tuple[str, List[TraceEvent]]]:
    """Cut one cell's events into fault-delimited phases.

    The stream opens in a ``traffic`` phase; each fault/membership
    marker (crash, recover, partition, heal, ring-change) starts a new
    phase named after it, with the marker event as its first member.
    """
    phases: List[Tuple[str, List[TraceEvent]]] = []
    label = "traffic"
    current: List[TraceEvent] = []
    for event in events:
        marker = _PHASE_MARKERS.get(event.type)
        if marker is not None:
            if current:
                phases.append((label, current))
            label = marker
            current = [event]
        else:
            current.append(event)
    if current:
        phases.append((label, current))
    return phases


def _phase_row(label: str, events: List[TraceEvent]) -> List[object]:
    totals = trace_totals(events)
    repair = sum(
        e.payload_bytes + e.metadata_bytes
        for e in events
        if e.type in REPAIR_EVENTS
    )
    handoff = sum(
        e.payload_bytes + e.metadata_bytes
        for e in events
        if e.type in HANDOFF_EVENTS
    )
    dropped = sum(1 for e in events if e.type == MESSAGE_DROPPED)
    rounds = {e.round for e in events if e.round is not None}
    return [
        label,
        len(rounds),
        totals["messages"],
        totals["payload_bytes"],
        totals["metadata_bytes"],
        repair,
        handoff,
        dropped,
    ]


def _lag_lines(events: List[TraceEvent]) -> List[str]:
    lags = sorted(
        event.extra.get("rounds", 0) for event in events if event.type == LAG
    )
    if not lags:
        return []
    p50 = lags[(len(lags) - 1) // 2]
    p95 = lags[min(len(lags) - 1, (len(lags) * 95) // 100)]
    return [
        "",
        "convergence lag (rounds): "
        f"count={len(lags)} mean={sum(lags) / len(lags):.2f} "
        f"p50={p50} p95={p95} max={lags[-1]}",
    ]


def render_report(events: List[TraceEvent]) -> str:
    """The ``repro trace report`` body: per-cell, per-phase timeline."""
    if not events:
        return "empty trace"
    format_table, human_bytes = _table_helpers()
    blocks: List[str] = []
    for label, cell_events in split_cells(events):
        rows = [
            _phase_row(phase, phase_events)
            for phase, phase_events in segment_phases(cell_events)
        ]
        totals = trace_totals(cell_events)
        title = f"cell: {label}" if label else "trace"
        table = format_table(
            [
                "phase",
                "rounds",
                "sends",
                "payload B",
                "metadata B",
                "repair B",
                "handoff B",
                "dropped",
            ],
            rows,
            title=title,
        )
        footer = (
            f"total: {totals['messages']} messages, "
            f"{human_bytes(totals['payload_bytes'])} payload, "
            f"{human_bytes(totals['metadata_bytes'])} metadata"
        )
        lines = [table, footer]
        lines.extend(_lag_lines(cell_events))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)

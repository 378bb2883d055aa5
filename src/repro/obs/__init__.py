"""Observability for the replica stack: traces, metrics, lag.

Four pieces, all optional and all off by default:

* :mod:`repro.obs.trace` — the structured JSONL event stream
  (:class:`Tracer` writing to a :class:`TraceSink`);
* :mod:`repro.obs.metrics` — the per-replica
  :class:`MetricsRegistry` of counters that the scheduler and WAL
  stats live in;
* :mod:`repro.obs.lag` — the :class:`ConvergenceProbe` sampling
  per-shard root-hash agreement;
* :mod:`repro.obs.report` — post-processing that re-derives the
  experiment tables from a trace file alone.
"""

from repro.obs.lag import ConvergenceProbe
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.report import (
    render_report,
    segment_phases,
    split_cells,
    trace_totals,
)
from repro.obs.trace import (
    EVENT_TYPES,
    FileTraceSink,
    MemoryTraceSink,
    TraceEvent,
    Tracer,
    TraceSink,
    decode_event,
    encode_event,
    read_trace,
    read_trace_dir,
)

__all__ = [
    "ConvergenceProbe",
    "Counter",
    "EVENT_TYPES",
    "FileTraceSink",
    "MemoryTraceSink",
    "MetricsRegistry",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "decode_event",
    "encode_event",
    "read_trace",
    "read_trace_dir",
    "render_report",
    "segment_phases",
    "split_cells",
    "trace_totals",
]

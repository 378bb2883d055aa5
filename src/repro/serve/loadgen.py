"""The client-side load generator: latency percentiles and staleness.

Drives one :class:`~repro.serve.client.KVClient` with a seeded
Zipf-skewed closed loop of typed operations (the same key-prefix → CRDT
type cycle as :class:`~repro.workloads.kv.KVZipfWorkload`, so the
serving keyspace looks like the sweep keyspace) and measures what a
*client* sees — which the round-level byte accounting cannot:

* per-verb latency percentiles (p50 / p95 / p99, measured around the
  whole quorum exchange: coordinator op + ``w − 1`` delta pushes for
  writes, ``r`` replies + read repair for reads);
* the client's own consistency counters — stale session reads,
  divergent read sets, read repairs pushed, retries, unavailability —
  which is where the ``r``/``w`` knobs become visible as *behaviour*
  rather than configuration.

Timing uses ``time.perf_counter`` around blocking socket round trips
on localhost: the numbers are honest end-to-end client latencies of
this harness, not a claim about datacenter RTTs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.serve.client import KVClient
from repro.workloads.zipf import ZipfSampler

#: Key prefix → CRDT type, matching ``KVZipfWorkload.TYPE_CYCLE``.
TYPE_CYCLE = ("gct", "set", "reg", "aws", "cnt")

_GSET_POOL = 64
_AWSET_POOL = 24


def percentile(sorted_samples: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of an ascending sample list.

    Nearest-rank on the sorted samples — simple, deterministic, and
    exact for the small sample counts a smoke run produces.  Returns
    ``0.0`` for an empty list (a report row, not an error).
    """
    if not sorted_samples:
        return 0.0
    if q <= 0:
        return sorted_samples[0]
    if q >= 1:
        return sorted_samples[-1]
    rank = max(0, min(len(sorted_samples) - 1, round(q * len(sorted_samples)) - 1))
    return sorted_samples[rank]


def _latency_summary(samples_ms: List[float]) -> Dict[str, float]:
    ordered = sorted(samples_ms)
    return {
        "count": float(len(ordered)),
        "mean": sum(ordered) / len(ordered) if ordered else 0.0,
        "p50": percentile(ordered, 0.50),
        "p95": percentile(ordered, 0.95),
        "p99": percentile(ordered, 0.99),
        "max": ordered[-1] if ordered else 0.0,
    }


@dataclass(frozen=True)
class LoadReport:
    """What one load run measured, client-side."""

    ops: int
    gets: int
    puts: int
    failed_ops: int
    get_latency_ms: Dict[str, float]
    put_latency_ms: Dict[str, float]
    #: The client's consistency counters at the end of the run
    #: (:attr:`KVClient.stats`): stale_session_reads, divergent_reads,
    #: read_repairs, retries, unavailable, replica_puts, ...
    client_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def stale_session_reads(self) -> int:
        return self.client_stats.get("stale_session_reads", 0)

    @property
    def divergent_reads(self) -> int:
        return self.client_stats.get("divergent_reads", 0)

    @property
    def read_repairs(self) -> int:
        return self.client_stats.get("read_repairs", 0)


class LoadGenerator:
    """A seeded closed-loop client workload: one request in flight.

    ``run_op`` blocks on every reply before issuing the next operation,
    so a slow system receives less load; there is no arrival schedule
    and no queueing delay in the reported latencies.

    Args:
        client: The (already wired) :class:`KVClient` to drive.
        keys: Keyspace size; key *i* gets type ``TYPE_CYCLE[i % 5]``.
        write_ratio: Fraction of operations that write.
        zipf_coefficient: Key-popularity skew (same knob as the sweep).
        seed: Derives the entire operation schedule.
        on_error: Called with the raised exception for failed ops
            (``None`` = re-raise).  The smoke test uses this to assert
            the only failures under faults are ``Unavailable`` — a
            client may be refused, but never lied to.
    """

    def __init__(
        self,
        client: KVClient,
        *,
        keys: int = 64,
        write_ratio: float = 0.5,
        zipf_coefficient: float = 1.0,
        seed: int = 0,
        on_error: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        self.client = client
        self.keys = keys
        self.write_ratio = write_ratio
        self.seed = seed
        self.on_error = on_error
        self._key_names = [
            f"{TYPE_CYCLE[i % len(TYPE_CYCLE)]}:{i:05d}" for i in range(keys)
        ]
        self._sampler = ZipfSampler(keys, zipf_coefficient, seed)
        self._rng = random.Random(seed ^ 0x10AD)
        self._clock = 0
        self._get_latency_ms: List[float] = []
        self._put_latency_ms: List[float] = []
        self.ops = 0
        self.gets = 0
        self.puts = 0
        self.failed_ops = 0

    def _draw_write(self, key: str) -> Tuple[str, Tuple[Any, ...]]:
        """A valid op for the type of the key's prefix (the sweep's mix)."""
        prefix = key[:3]
        rng = self._rng
        self._clock += 1
        if prefix == "gct":
            return "increment", (1 + rng.randrange(3),)
        if prefix == "cnt":
            kind = "increment" if rng.random() < 0.7 else "decrement"
            return kind, (1 + rng.randrange(3),)
        if prefix == "set":
            return "add", (f"e{rng.randrange(_GSET_POOL):03d}",)
        if prefix == "aws":
            kind = "add" if rng.random() < 0.75 else "remove"
            return kind, (f"a{rng.randrange(_AWSET_POOL):03d}",)
        return "write", (f"v{self._clock:08d}", self._clock)

    def run_op(self) -> bool:
        """One operation; returns False when it failed (and was eaten)."""
        key = self._key_names[self._sampler.sample()]
        write = self._rng.random() < self.write_ratio
        self.ops += 1
        started = time.perf_counter()
        try:
            if write:
                op, args = self._draw_write(key)
                self.client.put(key, op, *args)
            else:
                self.client.get(key)
        except Exception as exc:
            self.failed_ops += 1
            if self.on_error is None:
                raise
            self.on_error(exc)
            return False
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if write:
            self.puts += 1
            self._put_latency_ms.append(elapsed_ms)
        else:
            self.gets += 1
            self._get_latency_ms.append(elapsed_ms)
        return True

    def run(self, ops: int) -> LoadReport:
        """Run ``ops`` operations back to back; return the report."""
        for _ in range(ops):
            self.run_op()
        return self.report()

    def report(self) -> LoadReport:
        return LoadReport(
            ops=self.ops,
            gets=self.gets,
            puts=self.puts,
            failed_ops=self.failed_ops,
            get_latency_ms=_latency_summary(self._get_latency_ms),
            put_latency_ms=_latency_summary(self._put_latency_ms),
            client_stats=dict(self.client.stats),
        )

"""The serving-cluster experiment: quorum reads as a client sees them.

:func:`run_kv_quorum` is the client's-eye experiment the in-process
harness cannot run: a :class:`~repro.serve.loadgen.LoadGenerator`
drives a :class:`~repro.serve.client.KVClient` against a live process
cluster under different read/write quorum settings, and the table
reports what changed *for the client* — latency percentiles (each extra
quorum member is another synchronous round trip) against observed
staleness (``r = 1`` reads routed randomly across owners lose session
monotonicity; a majority read quorum with ``r + w > rf`` restores it).
Read-repair traffic is counted separately on both sides: the client
counts the joins it pushed, the replicas' ``scheduler.read_repairs`` /
``scheduler.read_repair_payload_bytes`` counters what they absorbed —
so repair cost is attributable, not smeared into anti-entropy totals.

(The sweep, the fault replay and the rebalance replay reach process
clusters like any other deployment, through
:func:`repro.serve.deploy.build_cluster`.)
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.experiments.kv_sweep import check_algorithms
from repro.experiments.report import format_table, human_bytes
from repro.kv.driver import check_recovery
from repro.serve.client import KVClient
from repro.serve.cluster import ProcessCluster
from repro.serve.loadgen import LoadGenerator


# ---------------------------------------------------------------------------
# The quorum experiment.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuorumConfig:
    """One quorum comparison: cluster shape and client load."""

    replicas: int = 4
    shards: int = 16
    replication: int = 3
    algorithm: str = "delta-based-bp-rr"
    recovery: str = "wal"
    #: Client load: ``batches`` bursts of ``ops_per_batch`` operations,
    #: one anti-entropy round between bursts — so writes have a window
    #: in which only their write quorum has seen them, which is the
    #: window staleness lives in.
    keys: int = 48
    batches: int = 6
    ops_per_batch: int = 30
    write_ratio: float = 0.5
    zipf: float = 1.0
    seed: int = 7
    #: Trace directory (``None`` disables); each cell gets a subdir.
    trace: Optional[str] = None

    def __post_init__(self) -> None:
        check_algorithms([self.algorithm])
        check_recovery(self.recovery)

    @property
    def majority(self) -> int:
        return self.replication // 2 + 1


@dataclass(frozen=True)
class QuorumCell:
    """One (r, w, route) setting, measured client- and server-side."""

    label: str
    r: int
    w: int
    route: str
    ops: int
    failed_ops: int
    get_p50_ms: float
    get_p99_ms: float
    put_p50_ms: float
    put_p99_ms: float
    stale_session_reads: int
    divergent_reads: int
    client_read_repairs: int
    server_read_repairs: int
    read_repair_payload_bytes: int
    messages: int
    payload_bytes: int


@dataclass(frozen=True)
class KVQuorumResult:
    """The comparison across quorum settings on identical load."""

    config: QuorumConfig
    cells: Mapping[str, QuorumCell]

    def cell(self, label: str) -> QuorumCell:
        return self.cells[label]

    def render(self) -> str:
        config = self.config
        header = (
            f"kv quorum reads — {config.replicas} process replicas, "
            f"{config.shards} shards × rf {config.replication}, "
            f"{config.algorithm}, {config.batches}×{config.ops_per_batch} ops "
            f"(write ratio {config.write_ratio:g}), seed {config.seed}"
        )
        rows = []
        for cell in self.cells.values():
            rows.append(
                (
                    cell.label,
                    f"{cell.r}/{cell.w}",
                    cell.route,
                    f"{cell.get_p50_ms:.2f}",
                    f"{cell.get_p99_ms:.2f}",
                    f"{cell.put_p50_ms:.2f}",
                    f"{cell.put_p99_ms:.2f}",
                    cell.stale_session_reads,
                    cell.divergent_reads,
                    cell.server_read_repairs,
                    human_bytes(cell.read_repair_payload_bytes),
                )
            )
        return format_table(
            (
                "setting",
                "r/w",
                "route",
                "get p50 ms",
                "get p99 ms",
                "put p50 ms",
                "put p99 ms",
                "stale reads",
                "divergent",
                "repairs",
                "repair bytes",
            ),
            rows,
            title=header,
        )


#: The comparison rows: label → (r, w, read route).  ``r1-random`` is
#: the staleness-visible baseline; ``r1-primary`` shows that routing
#: every read at the coordinator hides most of it without any quorum;
#: ``majority`` is the ``r + w > rf`` setting that closes the contract.
def _quorum_settings(config: QuorumConfig) -> Dict[str, Tuple[int, int, str]]:
    majority = config.majority
    return {
        "r1-random": (1, 1, "random"),
        "r1-primary": (1, 1, "primary"),
        "majority": (majority, majority, "random"),
    }


def run_kv_quorum_cell(
    config: QuorumConfig, label: str, r: int, w: int, route: str
) -> QuorumCell:
    """One setting: fresh cluster, identical seeded load, full teardown."""
    trace_dir = (
        os.path.join(config.trace, label) if config.trace is not None else None
    )
    cluster = ProcessCluster(
        config.replicas,
        shards=config.shards,
        replication=config.replication,
        algorithm=config.algorithm,
        recovery=config.recovery,
        trace_dir=trace_dir,
    )
    try:
        client = KVClient(
            cluster.client_addresses(),
            replicas=cluster.replicas,
            shards=config.shards,
            replication=config.replication,
            r=r,
            w=w,
            route=route,
            seed=config.seed,
        )
        with client:
            generator = LoadGenerator(
                client,
                keys=config.keys,
                write_ratio=config.write_ratio,
                zipf_coefficient=config.zipf,
                seed=config.seed,
            )
            for _ in range(config.batches):
                for _ in range(config.ops_per_batch):
                    generator.run_op()
                # One anti-entropy round between bursts: replication
                # catches up, so the *next* burst's staleness is due to
                # the quorum setting, not an unbounded backlog.
                cluster.run_round(None)
            report = generator.report()
        cluster.drain()
        stats = cluster.scheduler_stats()
        return QuorumCell(
            label=label,
            r=r,
            w=w,
            route=route,
            ops=report.ops,
            failed_ops=report.failed_ops,
            get_p50_ms=report.get_latency_ms["p50"],
            get_p99_ms=report.get_latency_ms["p99"],
            put_p50_ms=report.put_latency_ms["p50"],
            put_p99_ms=report.put_latency_ms["p99"],
            stale_session_reads=report.stale_session_reads,
            divergent_reads=report.divergent_reads,
            client_read_repairs=report.read_repairs,
            server_read_repairs=int(stats.get("read_repairs", 0)),
            read_repair_payload_bytes=int(
                stats.get("read_repair_payload_bytes", 0)
            ),
            messages=cluster.metrics.message_count,
            payload_bytes=cluster.metrics.total_payload_bytes(),
        )
    finally:
        cluster.close()


def run_kv_quorum(
    config: QuorumConfig = QuorumConfig(),
    settings: Optional[Sequence[str]] = None,
) -> KVQuorumResult:
    """Run the identical seeded client load under each quorum setting."""
    table = _quorum_settings(config)
    chosen = tuple(table) if settings is None else tuple(settings)
    unknown = [label for label in chosen if label not in table]
    if unknown:
        raise ValueError(
            f"unknown quorum settings {unknown} (known: {list(table)})"
        )
    cells: Dict[str, QuorumCell] = {}
    for label in chosen:
        r, w, route = table[label]
        cells[label] = run_kv_quorum_cell(config, label, r, w, route)
    return KVQuorumResult(config=config, cells=cells)

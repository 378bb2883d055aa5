"""The store-level sweep: synchronization protocols under kv traffic.

The paper compares synchronizers on one replicated object; the sharded
store of :mod:`repro.kv` is where those comparisons meet deployment
reality — a keyspace of heterogeneous CRDTs, consistent-hash placement
with a replication factor, and per-shard anti-entropy.  This driver
replays one deterministic workload (mixed-type Zipf or Retwis) against
the same ring for each protocol and reports what crossed the wire,
what stayed resident, and how the scheduler behaved.

The headline result mirrors Figure 11 at store scale: state-based
pushes whole shard keyspaces every interval and delta-based BP+RR
ships only the δ-groups of the keys actually written, so its payload
bytes are a small fraction of state-based's on the identical schedule.

:func:`run_kv_repair_comparison` is the recovery-path counterpart: one
seeded fault schedule (partition with writes on both sides, heal, crash
with disk loss, recover) replayed under each **recovery strategy** at
equal per-shard convergence.  The strategy ladder
(:data:`RECOVERY_STRATEGIES`):

* ``blanket`` — full-state pushes on a timer (the redundant
  transmission the paper exists to eliminate);
* ``digest`` — divergence-driven repair: cold δ-paths are probed with
  one Merkle root and only the inflating join decomposition ships on
  mismatch — the ConflictSync argument (Gomes et al., PAPERS.md)
  measured on this store;
* ``wal`` — the rebuilt replica first replays its per-shard write-ahead
  log (:mod:`repro.wal`) locally, so digest repair covers only the
  divergence accrued *during* the downtime plus the log's torn tail;
* ``wal+repair`` — replay as above, then every δ-path is marked suspect
  and verified by immediate root probes (duplicate exchanges on
  genuinely divergent paths buy certainty even if the peers' own
  suspicion signals were lost).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.driver import Deployment, Stepped, describe
from repro.experiments.report import format_table, human_bytes
from repro.kv.antientropy import AntiEntropyConfig
from repro.kv.driver import KV_ALGORITHMS, KVDriver, check_recovery
from repro.kv.ring import HashRing
from repro.obs.trace import CELL_END, CELL_START
from repro.serve.deploy import build_cluster, open_tracer
from repro.workloads.kv import KVRetwisWorkload, KVZipfWorkload

DEFAULT_ALGORITHMS: Tuple[str, ...] = (
    "state-based",
    "delta-based",
    "delta-based-bp-rr",
    "merkle",
)

#: Recovery strategies compared by the fault replay: row label →
#: (scheduler repair mode, cluster lose-state recovery policy).
RECOVERY_STRATEGIES: Dict[str, Tuple[str, str]] = {
    "blanket": ("blanket", "repair"),
    "digest": ("digest", "repair"),
    "wal": ("digest", "wal"),
    "wal+repair": ("digest", "wal+repair"),
}

DEFAULT_STRATEGIES: Tuple[str, ...] = tuple(RECOVERY_STRATEGIES)


@dataclass(frozen=True)
class KVConfig:
    """One sweep cell: cluster shape, keyspace, workload, scheduling."""

    replicas: int = 16
    keys: int = 1000
    rounds: int = 20
    ops_per_node: int = 8
    users: int = 200
    zipf: float = 1.0
    replication: int = 3
    shards: int = 32
    seed: int = 42
    workload: str = "zipf"
    budget_bytes: Optional[int] = None
    repair_interval: int = 0
    repair_fanout: int = 1
    repair_mode: str = "blanket"
    #: Where the replicas run and what steps them — the simulator,
    #: the simulator running free (:class:`~repro.driver.FreeRun`),
    #: localhost TCP sockets, or one OS process per replica.  A closed
    #: value: every spelling is a deployment that runs.
    deployment: Deployment = Stepped.SIM
    #: Lose-state recovery policy (``repair`` | ``wal`` | ``wal+repair``).
    #: The WAL policies give every store a durable per-shard delta log.
    recovery: str = "repair"
    #: Structured-trace output path (JSONL); ``None`` disables tracing.
    #: One file covers the whole driver run — each cell is bracketed by
    #: ``cell-start``/``cell-end`` events, so ``repro trace report``
    #: renders one table per cell and the byte totals of the tables can
    #: be re-derived from the trace alone.
    trace: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workload not in ("zipf", "retwis"):
            raise ValueError(f"unknown kv workload {self.workload!r} (zipf | retwis)")
        if self.ops_per_node < 0:
            raise ValueError(f"ops_per_node must be non-negative, got {self.ops_per_node}")
        self.make_workload(self.ring())
        self.antientropy()
        check_recovery(self.recovery)
        if (
            self.deployment is Stepped.PROC
            and self.trace is not None
            and os.path.isfile(self.trace)
        ):
            # Per-process trace files cannot share one JSONL sink;
            # process clusters write a *directory* of them per cell.
            raise ValueError(
                "a proc deployment writes a trace directory (one file per "
                f"replica process), but {self.trace!r} is an existing file"
            )

    def ring(self) -> HashRing:
        return HashRing(
            range(self.replicas), n_shards=self.shards, replication=self.replication
        )

    def make_workload(self, ring: HashRing):
        if self.workload == "zipf":
            return KVZipfWorkload(
                ring,
                self.rounds,
                self.ops_per_node,
                keys=self.keys,
                zipf_coefficient=self.zipf,
                seed=self.seed,
            )
        return KVRetwisWorkload(
            ring,
            self.rounds,
            self.ops_per_node,
            users=self.users,
            zipf_coefficient=self.zipf,
            seed=self.seed,
        )

    def antientropy(self) -> AntiEntropyConfig:
        return AntiEntropyConfig(
            budget_bytes=self.budget_bytes,
            repair_interval=self.repair_interval,
            repair_fanout=self.repair_fanout,
            repair_mode=self.repair_mode,
        )


def check_algorithms(algorithms: Sequence[str]) -> None:
    """``ValueError`` unless ``algorithms`` is a non-empty list of
    :data:`~repro.kv.driver.KV_ALGORITHMS` names."""
    unknown = [a for a in algorithms if a not in KV_ALGORITHMS]
    if unknown or not algorithms:
        detail = f"unknown algorithms {unknown}" if unknown else "no algorithms given"
        raise ValueError(f"{detail} (known: {sorted(KV_ALGORITHMS)})")


def check_faults(config: KVConfig, algorithm: str, modes: Sequence[str]) -> None:
    """``ValueError`` unless the fault replay can run ``modes`` rows of
    ``algorithm`` under ``config``."""
    check_algorithms([algorithm])
    if config.repair_interval < 1:
        raise ValueError(
            "the fault scenario depends on the recovery path: set "
            "repair_interval >= 1 (0 disables repair entirely)"
        )
    unknown = [mode for mode in modes if mode not in RECOVERY_STRATEGIES]
    if unknown or not modes:
        detail = (
            f"unknown recovery strategy {unknown[0]!r}"
            if unknown
            else "no recovery strategies given"
        )
        raise ValueError(f"{detail} (known: {', '.join(RECOVERY_STRATEGIES)})")


@dataclass(frozen=True)
class KVSweepConfig(KVConfig):
    """``repro run kv-sweep``: each of ``algorithms`` on one workload replay."""

    algorithms: Tuple[str, ...] = DEFAULT_ALGORITHMS

    def __post_init__(self) -> None:
        super().__post_init__()
        check_algorithms(self.algorithms)
        if self.rounds < 1 or self.ops_per_node < 1:
            # Every row is a byte ratio to BP+RR's bytes for the updates.
            raise ValueError(
                "kv-sweep compares the bytes each protocol spends on updates: "
                f"rounds and ops_per_node must be positive, got {self.rounds} "
                f"and {self.ops_per_node}"
            )


@dataclass(frozen=True)
class KVFaultsConfig(KVConfig):
    """``repro run kv-faults``: the fault replay of ``algorithm`` under
    each of ``strategies``.

    Each strategy row brings its own repair mode and recovery policy
    (:data:`RECOVERY_STRATEGIES`), so ``repair_mode`` and ``recovery``
    stay at their defaults here.
    """

    repair_interval: int = 4
    repair_fanout: int = 8
    algorithm: str = "delta-based-bp-rr"
    strategies: Tuple[str, ...] = DEFAULT_STRATEGIES

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.repair_mode, self.recovery) != (KVConfig.repair_mode, KVConfig.recovery):
            raise ValueError(
                "each fault-replay row sets its own repair_mode and recovery; "
                "choose rows with strategies instead"
            )
        check_faults(self, self.algorithm, self.strategies)


@dataclass(frozen=True)
class KVCell:
    """Everything measured for one protocol."""

    algorithm: str
    converged: bool
    drain_rounds: int
    messages: int
    payload_bytes: int
    metadata_bytes: int
    avg_memory_bytes: float
    deferred: int
    repairs: int
    probes: int = 0
    repair_payload_bytes: int = 0
    repair_metadata_bytes: int = 0
    messages_dropped: int = 0
    messages_severed: int = 0
    #: Write-ahead-log accounting (all zero under ``recovery="repair"``).
    wal_committed_bytes: int = 0
    wal_compactions: int = 0
    wal_replayed_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.metadata_bytes

    @property
    def repair_bytes(self) -> int:
        """Everything the repair path moved: payloads plus digests."""
        return self.repair_payload_bytes + self.repair_metadata_bytes


@dataclass(frozen=True)
class KVSweepResult:
    """The sweep across protocols on one workload replay."""

    config: KVConfig
    workload: str
    total_updates: int
    cells: Mapping[str, KVCell]

    def cell(self, algorithm: str) -> KVCell:
        return self.cells[algorithm]

    def payload_bytes(self, algorithm: str) -> int:
        return self.cells[algorithm].payload_bytes

    def total_bytes(self, algorithm: str) -> int:
        return self.cells[algorithm].total_bytes

    def render(self) -> str:
        config = self.config
        header = (
            f"kv store sweep — {self.workload}, {config.replicas} replicas, "
            f"{config.shards} shards × rf {config.replication}, "
            f"{self.total_updates} updates, seed {config.seed}"
        )
        if config.budget_bytes is not None:
            header += f", budget {human_bytes(config.budget_bytes)}/tick"
        header += describe(config.deployment)
        rows = []
        baseline = self.cells.get("delta-based-bp-rr")
        for label, cell in self.cells.items():
            ratio = (
                cell.total_bytes / baseline.total_bytes
                if baseline and baseline.total_bytes
                else float("nan")
            )
            rows.append(
                (
                    label,
                    cell.converged,
                    cell.messages,
                    human_bytes(cell.payload_bytes),
                    human_bytes(cell.metadata_bytes),
                    human_bytes(cell.total_bytes),
                    f"{ratio:.2f}x",
                    human_bytes(cell.avg_memory_bytes),
                    cell.drain_rounds,
                    cell.deferred,
                )
            )
        return format_table(
            (
                "algorithm",
                "converged",
                "messages",
                "payload",
                "metadata",
                "total",
                "vs bp+rr",
                "avg mem",
                "drain",
                "deferred",
            ),
            rows,
            title=header,
        )


@contextmanager
def measured_cell(
    config: KVConfig, algorithm: str, label: str, extra: dict, tracer=None, **build
) -> Iterator[KVDriver]:
    """One cell's cluster: built, bracketed in the trace, torn down.

    ``tracer`` is a run-wide tracer shared across cells; without one the
    cell honours ``config.trace`` itself.  ``build`` goes to
    :func:`~repro.serve.deploy.build_cluster`.  The ``cell-start`` /
    ``cell-end`` markers go through ``cluster.tracer`` — the shared
    tracer in process, the controller's own on a process cluster — and
    the end marker is written only when the body finished.
    """
    own_tracer = tracer is None
    if own_tracer:
        tracer = open_tracer(config)
    cluster = build_cluster(config, algorithm, tracer=tracer, label=label, **build)
    try:
        if cluster.tracer is not None:
            cluster.tracer.emit(CELL_START, label=label, extra=extra)
        yield cluster
        if cluster.tracer is not None:
            cluster.tracer.emit(CELL_END, label=label)
    finally:
        cluster.close()
        if own_tracer and tracer is not None:
            tracer.sink.close()


def run_kv_cell(
    config: KVConfig, algorithm: str, workload=None, tracer=None
) -> KVCell:
    """Run one protocol against the configured workload replay.

    ``workload`` lets a sweep share one pre-generated schedule across
    cells; schedules are immutable after construction, so replays stay
    identical either way.
    """
    if workload is None:
        workload = config.make_workload(config.ring())
    with measured_cell(
        config, algorithm, algorithm, {"workload": workload.name}, tracer
    ) as cluster:
        cluster.run_rounds(workload.rounds, workload.updates_for)
        return _measure_cell(cluster, algorithm, cluster.drain())


def _measure_cell(cluster: KVDriver, algorithm: str, drain_rounds: int) -> KVCell:
    stats = cluster.scheduler_stats()
    wal = cluster.wal_stats()
    return KVCell(
        algorithm=algorithm,
        converged=cluster.converged(),
        drain_rounds=drain_rounds,
        messages=cluster.metrics.message_count,
        payload_bytes=cluster.metrics.total_payload_bytes(),
        metadata_bytes=cluster.metrics.total_metadata_bytes(),
        avg_memory_bytes=cluster.metrics.average_memory_bytes(),
        deferred=stats["deferred"],
        repairs=stats["repairs"],
        probes=stats["probes"],
        repair_payload_bytes=stats["repair_payload_bytes"],
        repair_metadata_bytes=stats["repair_metadata_bytes"],
        messages_dropped=cluster.messages_dropped,
        messages_severed=cluster.messages_severed,
        wal_committed_bytes=wal.get("wal_committed_bytes", 0),
        wal_compactions=wal.get("wal_compactions", 0),
        wal_replayed_bytes=wal.get("wal_replayed_bytes", 0),
    )


@dataclass(frozen=True)
class KVRepairComparison:
    """Recovery strategies compared on one seeded fault replay."""

    config: KVConfig
    algorithm: str
    workload: str
    total_updates: int
    cells: Mapping[str, KVCell]

    def cell(self, mode: str) -> KVCell:
        return self.cells[mode]

    def render(self) -> str:
        config = self.config
        header = (
            f"kv repair comparison — {self.algorithm} inner protocol, "
            f"{config.replicas} replicas, {config.shards} shards × rf "
            f"{config.replication}, partition + heal + crash(lose_state), "
            f"repair interval {config.repair_interval}, seed {config.seed}"
        )
        header += describe(config.deployment)
        rows = []
        for mode, cell in self.cells.items():
            rows.append(
                (
                    mode,
                    cell.converged,
                    cell.drain_rounds,
                    cell.repairs,
                    cell.probes,
                    human_bytes(cell.repair_payload_bytes),
                    human_bytes(cell.repair_metadata_bytes),
                    human_bytes(cell.repair_bytes),
                    human_bytes(cell.wal_replayed_bytes),
                    human_bytes(cell.total_bytes),
                    cell.messages_severed,
                    cell.messages_dropped,
                )
            )
        return format_table(
            (
                "recovery",
                "converged",
                "drain",
                "repairs",
                "probes",
                "repair payload",
                "repair digests",
                "repair total",
                "wal replay",
                "wire total",
                "severed",
                "dropped",
            ),
            rows,
            title=header,
        )


def run_kv_repair_cell(
    config: KVConfig, algorithm: str, mode: str, workload=None, tracer=None
) -> KVCell:
    """One fault replay: partition with writes on both sides, heal,
    crash with disk loss, recover, drain to per-shard convergence.

    ``mode`` names a :data:`RECOVERY_STRATEGIES` row.  The schedule is
    fully deterministic given ``config.seed``, so every strategy sees
    byte-identical update traffic and divergence; only the recovery
    path differs.
    """
    check_faults(config, algorithm, [mode])
    repair_mode, recovery = RECOVERY_STRATEGIES[mode]
    if workload is None:
        workload = config.make_workload(config.ring())
    with measured_cell(
        config,
        algorithm,
        mode,
        {"algorithm": algorithm, "recovery": recovery},
        tracer,
        antientropy=replace(config.antientropy(), repair_mode=repair_mode),
        recovery=recovery,
    ) as cluster:
        phase = max(1, workload.rounds // 3)
        updates = workload.updates_for
        # Healthy traffic, then a partition that keeps absorbing writes on
        # both sides (synchronization across the cut is refused and the
        # flushed δ-groups are gone), then heal.
        cluster.run_rounds(phase, updates)
        cluster.partition(range(config.replicas // 2))
        for round_index in range(phase, 2 * phase):
            cluster.run_round(lambda node, r=round_index: updates(r, node))
        cluster.heal()
        # A replica loses its disk while the remaining schedule plays out.
        victim = config.replicas - 1
        cluster.crash(victim, lose_state=True)
        for round_index in range(2 * phase, workload.rounds):
            cluster.run_round(lambda node, r=round_index: updates(r, node))
        cluster.recover(victim)
        return _measure_cell(cluster, algorithm, cluster.drain())


def _run_cells(config: KVConfig, labels: Sequence[str], run_one) -> Tuple[Any, Dict[str, KVCell]]:
    """``run_one(label, workload, tracer)`` per label, on one shared
    workload schedule and one run-wide tracer."""
    workload = config.make_workload(config.ring())
    tracer = open_tracer(config)
    try:
        return workload, {
            label: run_one(label, workload, tracer) for label in labels
        }
    finally:
        if tracer is not None:
            tracer.sink.close()


def run_kv_repair_comparison(config: KVFaultsConfig) -> KVRepairComparison:
    """Replay the identical fault schedule under each of
    ``config.strategies``."""
    workload, cells = _run_cells(
        config,
        config.strategies,
        lambda mode, workload, tracer: run_kv_repair_cell(
            config, config.algorithm, mode, workload, tracer=tracer
        ),
    )
    return KVRepairComparison(
        config=config,
        algorithm=config.algorithm,
        workload=workload.name,
        total_updates=workload.total_updates(),
        cells=cells,
    )


def run_kv_sweep(config: KVSweepConfig) -> KVSweepResult:
    """Sweep ``config.algorithms`` over identical workload replays on
    one ring."""
    workload, cells = _run_cells(
        config,
        config.algorithms,
        lambda algorithm, workload, tracer: run_kv_cell(
            config, algorithm, workload, tracer=tracer
        ),
    )
    return KVSweepResult(
        config=config,
        workload=workload.name,
        total_updates=workload.total_updates(),
        cells=cells,
    )

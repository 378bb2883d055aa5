"""Live ring rebalancing measured: WAL-segment handoff vs naive transfer.

The paper's argument — ship the join decomposition, not the state —
extends to *membership changes*: when a shard moves to a new owner, the
old owner ships a compacted WAL segment (PR 4's canonical encoded
decomposition) through the ``kv-handoff-*`` exchange instead of pushing
live state objects around.  This driver measures that claim end to end:

1. run client traffic against a ring that leaves one topology node
   spare;
2. ``add_replica`` the spare node mid-run — traffic keeps flowing while
   the handoff protocol ships every moved shard;
3. ``decommission_replica`` the lowest node mid-run — the leaver
   sources its shards, fences its logs, and ends empty;
4. drain to per-shard convergence.

Per phase the report compares the measured handoff payload bytes
against the *naive full-state transfer baseline* — every live old owner
pushing its encoded state object to every gaining owner, which is what
membership changes cost without a handoff protocol (blanket repair
fills the new owner from every co-owner independently).  The consistent
ring keeps the movement itself minimal (``~replication/n`` of shards),
which the report also verifies against the observed moved fraction.

Every deployment runs the identical schedule through the same lines:
the simulator counts :mod:`repro.sizes` bytes, TCP and the process cluster
measured wire bytes of the :mod:`repro.codec` envelopes (the process
controller sees root hashes, not states, so its naive baseline reads 0),
and a free-running deployment really runs free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.driver import describe
from repro.experiments.kv_sweep import KVConfig, check_algorithms, measured_cell
from repro.experiments.report import format_table, human_bytes
from repro.kv.driver import KVDriver, RebalanceReport
from repro.kv.ring import HashRing

#: Handoff counters snapshotted between phases (scheduler stats keys).
_HANDOFF_KEYS = (
    "handoffs_started",
    "handoffs_completed",
    "handoff_offers",
    "handoff_segments",
    "handoff_payload_bytes",
    "handoff_metadata_bytes",
)


def check_rebalance(config: KVConfig, algorithm: str) -> None:
    """``ValueError`` unless the rebalance replay can run ``algorithm``
    under ``config``.

    Handoff gaps re-converge through repair, and the handoff
    warm-path/suspicion machinery expects digest probes; the initial
    ring leaves one seat spare to add and still has a member to
    decommission above the replication factor.
    """
    check_algorithms([algorithm])
    if config.repair_interval < 1:
        raise ValueError(
            "live rebalancing requires the repair path: set "
            "repair_interval >= 1 (0 disables repair entirely)"
        )
    if config.repair_mode != "digest":
        raise ValueError(
            "live rebalancing is divergence-driven end to end and requires "
            f"repair_mode digest, got {config.repair_mode!r}"
        )
    if config.replicas - 1 < config.replication + 1:
        raise ValueError(
            f"need at least replication+2 = {config.replication + 2} topology "
            f"nodes (one spare to add, one to decommission), got {config.replicas}"
        )


@dataclass(frozen=True)
class KVRebalanceConfig(KVConfig):
    """``repro run kv-rebalance``: the rebalance replay of ``algorithm``."""

    repair_interval: int = 4
    repair_fanout: int = 8
    repair_mode: str = "digest"
    recovery: str = "wal"
    algorithm: str = "delta-based-bp-rr"

    def __post_init__(self) -> None:
        super().__post_init__()
        check_rebalance(self, self.algorithm)


@dataclass(frozen=True)
class RebalancePhase:
    """One membership change, measured."""

    label: str
    moved_shards: int
    moved_fraction: float
    expected_fraction: float
    transfers: int
    unsourced: int
    handoffs_completed: int
    handoff_offers: int
    handoff_segments: int
    handoff_payload_bytes: int
    handoff_metadata_bytes: int
    naive_fullstate_bytes: int

    @property
    def handoff_bytes(self) -> int:
        """Everything the handoff path moved: segments plus framing."""
        return self.handoff_payload_bytes + self.handoff_metadata_bytes

    @property
    def vs_naive(self) -> float:
        """Handoff payload as a fraction of the naive baseline."""
        if not self.naive_fullstate_bytes:
            return float("nan")
        return self.handoff_payload_bytes / self.naive_fullstate_bytes


@dataclass(frozen=True)
class KVRebalanceResult:
    """The whole rebalance replay: add, decommission, convergence."""

    config: KVConfig
    algorithm: str
    workload: str
    total_updates: int
    phases: Tuple[RebalancePhase, ...]
    converged: bool
    drain_rounds: int
    decommissioned_empty: bool

    @property
    def handoff_payload_bytes(self) -> int:
        return sum(phase.handoff_payload_bytes for phase in self.phases)

    @property
    def naive_fullstate_bytes(self) -> int:
        return sum(phase.naive_fullstate_bytes for phase in self.phases)

    def phase(self, label: str) -> RebalancePhase:
        for entry in self.phases:
            if entry.label == label:
                return entry
        raise KeyError(label)

    def render(self) -> str:
        config = self.config
        header = (
            f"kv live rebalancing — {self.algorithm} inner protocol, "
            f"{config.shards} shards × rf {config.replication}, "
            f"{self.total_updates} updates with traffic flowing, "
            f"recovery {config.recovery}, seed {config.seed}"
        )
        header += describe(config.deployment)
        rows = []
        for phase in self.phases:
            rows.append(
                (
                    phase.label,
                    phase.moved_shards,
                    f"{phase.moved_fraction:.2f}",
                    f"~{phase.expected_fraction:.2f}",
                    f"{phase.handoffs_completed}/{phase.transfers}",
                    phase.handoff_segments,
                    human_bytes(phase.handoff_payload_bytes),
                    human_bytes(phase.handoff_bytes),
                    human_bytes(phase.naive_fullstate_bytes),
                    # A backend that cannot size remote copies reports
                    # no baseline (see RebalanceReport.naive_fullstate_bytes).
                    f"{phase.vs_naive:.2f}x" if phase.naive_fullstate_bytes else "n/a",
                )
            )
        footer = (
            f"converged={self.converged} after {self.drain_rounds} drain rounds; "
            f"decommissioned node empty={self.decommissioned_empty}"
        )
        table = format_table(
            (
                "phase",
                "moved",
                "frac",
                "expect",
                "handoffs",
                "segments",
                "handoff payload",
                "handoff total",
                "naive full-state",
                "vs naive",
            ),
            rows,
            title=header,
        )
        return f"{table}\n{footer}"


def _handoff_snapshot(cluster: KVDriver) -> Dict[str, int]:
    stats = cluster.scheduler_stats()
    return {key: stats.get(key, 0) for key in _HANDOFF_KEYS}


def _expected_fraction(report: RebalanceReport, replication: int) -> float:
    """The consistent-hash movement bound for one membership change.

    Adding or removing one node reassigns about that node's shard
    share: each shard has ``replication`` owner slots spread over the
    larger membership, so ``~replication/n`` of shards move.
    """
    larger = max(len(report.old_replicas), len(report.new_replicas))
    return replication / larger


def _phase_measurement(
    label: str,
    report: RebalanceReport,
    replication: int,
    before: Dict[str, int],
    after: Dict[str, int],
) -> RebalancePhase:
    taken = {key: after[key] - before[key] for key in _HANDOFF_KEYS}
    return RebalancePhase(
        label=label,
        moved_shards=len(report.moved_shards),
        moved_fraction=report.moved_fraction,
        expected_fraction=_expected_fraction(report, replication),
        transfers=len(report.transfers),
        unsourced=len(report.unsourced),
        handoffs_completed=taken["handoffs_completed"],
        handoff_offers=taken["handoff_offers"],
        handoff_segments=taken["handoff_segments"],
        handoff_payload_bytes=taken["handoff_payload_bytes"],
        handoff_metadata_bytes=taken["handoff_metadata_bytes"],
        naive_fullstate_bytes=report.naive_fullstate_bytes,
    )


def run_kv_rebalance(
    config: KVConfig = KVRebalanceConfig(),
    algorithm: str = "delta-based-bp-rr",
) -> KVRebalanceResult:
    """One deterministic replay: traffic → add → traffic → decommission →
    traffic → drain, with every shard movement shipped by handoff.

    The cluster has ``config.replicas`` seats but the initial ring
    covers only the first ``replicas - 1`` — the spare seat is what
    :meth:`~repro.kv.driver.KVDriver.add_replica` fills mid-run.
    ``config`` must pass :func:`check_rebalance`.
    """
    check_rebalance(config, algorithm)
    initial = config.replicas - 1
    ring = HashRing(
        range(initial), n_shards=config.shards, replication=config.replication
    )
    workload = config.make_workload(ring)
    joiner = config.replicas - 1
    leaver = 0
    with measured_cell(
        config,
        algorithm,
        f"rebalance {algorithm}",
        {"workload": workload.name},
        ring=ring,
    ) as cluster:

        def run_traffic(first: int, last: int) -> None:
            # Smart-client routing against the *current* ring: the schedule
            # was drawn against the initial placement, but mid-run the key's
            # owner group may have moved, so ops route by key, not by node.
            for round_index in range(first, last):
                for node in range(config.replicas):
                    for op in workload.updates_for(round_index, node):
                        cluster.update(op.key, op.op, *op.args)
                cluster.run_round(updates=None)

        phase = max(1, workload.rounds // 3)
        run_traffic(0, phase)
        before_add = _handoff_snapshot(cluster)
        add_report = cluster.add_replica(joiner)
        run_traffic(phase, 2 * phase)
        # Settle the join before the next membership change, so each
        # phase's byte/completion deltas are cleanly attributable — the
        # operational rhythm too: one rebalance settles before the next.
        drain_rounds = cluster.drain()
        after_add = _handoff_snapshot(cluster)
        decom_report = cluster.decommission_replica(leaver)
        run_traffic(2 * phase, workload.rounds)
        drain_rounds += cluster.drain()
        after_decom = _handoff_snapshot(cluster)
        phases = (
            _phase_measurement(
                f"add {joiner}",
                add_report,
                config.replication,
                before_add,
                after_add,
            ),
            _phase_measurement(
                f"decommission {leaver}",
                decom_report,
                config.replication,
                after_add,
                after_decom,
            ),
        )
        return KVRebalanceResult(
            config=config,
            algorithm=algorithm,
            workload=workload.name,
            total_updates=workload.total_updates(),
            phases=phases,
            converged=cluster.converged(),
            drain_rounds=drain_rounds,
            decommissioned_empty=not cluster.hosted_shards(leaver),
        )

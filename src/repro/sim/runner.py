"""Experiment orchestration: workload × topology × algorithm sweeps.

One :func:`run_experiment` call reproduces one cell of the paper's
evaluation: it builds a fresh cluster for a synchronization algorithm,
replays a deterministic workload on it, drains to convergence, and
returns the measurements.  :func:`run_suite` sweeps a set of algorithms
over the *same* workload (workloads are rebuilt per algorithm from the
same seed, so every algorithm sees an identical update schedule — the
property the paper's ratio plots rely on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence

from repro.sim.metrics import MetricsCollector
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import Topology
from repro.sync.protocol import Synchronizer
from repro.workloads.base import Workload


@dataclass(frozen=True)
class ExperimentResult:
    """Everything measured in one algorithm × workload × topology run."""

    algorithm: str
    workload: str
    topology: str
    rounds: int
    drain_rounds: int
    converged: bool
    duration_ms: float
    metrics: MetricsCollector
    final_state_units: int

    # ------------------------------------------------------------------
    # The quantities the paper plots.
    # ------------------------------------------------------------------

    def transmission_units(self) -> int:
        """Total transmitted entries (payload + metadata) — Figs 1, 7, 8.

        The paper's element/entry metric counts the vector and version
        metadata Scuttlebutt and op-based ship, which is what makes them
        lose on the GCounter despite their precise payloads.
        """
        return self.metrics.total_transmission_units()

    def payload_units(self) -> int:
        """Transmitted payload entries only."""
        return self.metrics.total_payload_units()

    def transmission_bytes(self) -> int:
        """Total bytes (payload + metadata) — Figures 9, 11."""
        return self.metrics.total_bytes()

    def metadata_bytes(self) -> int:
        return self.metrics.total_metadata_bytes()

    def metadata_fraction(self) -> float:
        return self.metrics.metadata_fraction()

    def average_memory_units(self) -> float:
        """Mean resident units per node-sample — Figure 10."""
        return self.metrics.average_memory_units()

    def average_memory_bytes(self) -> float:
        return self.metrics.average_memory_bytes()

    def processing_seconds(self) -> float:
        """Wall-clock CPU spent inside algorithm callbacks — Figure 12."""
        return self.metrics.total_processing_seconds()

    def processing_units(self) -> int:
        """Deterministic processing proxy (units produced + consumed)."""
        return self.metrics.total_processing_units()


def run_experiment(
    factory: Callable[..., Synchronizer],
    workload: Workload,
    topology: Topology,
    *,
    sync_interval_ms: float = 1000.0,
    latency_ms: float = 25.0,
    max_drain_rounds: int = 200,
) -> ExperimentResult:
    """Run one algorithm against one workload on one topology."""
    config = ClusterConfig(
        topology=topology,
        sync_interval_ms=sync_interval_ms,
        latency_ms=latency_ms,
        max_drain_rounds=max_drain_rounds,
    )
    cluster = Cluster(config, factory, workload.bottom())
    cluster.run_rounds(workload.rounds, workload.updates_for)
    drain_rounds = cluster.drain()
    algorithm = getattr(factory, "name", getattr(factory, "__name__", str(factory)))
    return ExperimentResult(
        algorithm=algorithm,
        workload=workload.name,
        topology=topology.name,
        rounds=workload.rounds,
        drain_rounds=drain_rounds,
        converged=cluster.converged(),
        duration_ms=cluster.now,
        metrics=cluster.metrics,
        final_state_units=cluster.nodes[0].state_units(),
    )


def run_suite(
    factories: Mapping[str, Callable[..., Synchronizer]],
    workload_factory: Callable[[], Workload],
    topology: Topology,
    **kwargs,
) -> Dict[str, ExperimentResult]:
    """Sweep algorithms over identical workload replays.

    ``workload_factory`` is invoked once per algorithm so that stateful
    workloads (seeded RNGs, rotating key schedules) restart identically.
    """
    results: Dict[str, ExperimentResult] = {}
    for label, factory in factories.items():
        result = run_experiment(factory, workload_factory(), topology, **kwargs)
        results[label] = result
    return results


def ratio_table(
    results: Mapping[str, ExperimentResult],
    baseline: str,
    value: Callable[[ExperimentResult], float],
) -> Dict[str, float]:
    """Normalize a measurement against a baseline algorithm.

    The paper's transmission and memory plots are ratios with respect
    to delta-based BP+RR; its CPU plot is a ratio with respect to
    BP+RR as well.  Guard against a zero baseline (possible only in
    degenerate configurations) by reporting ``inf``.
    """
    base = value(results[baseline])
    table = {}
    for label, result in results.items():
        measured = value(result)
        table[label] = measured / base if base else float("inf")
    return table

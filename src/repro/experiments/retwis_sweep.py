"""The shared Retwis contention sweep behind Figures 11 and 12.

Both figures are computed from the same runs — classic delta-based and
delta-based BP+RR replaying identical Retwis schedules at Zipf
coefficients from 0.5 to 1.5 — so the sweep is executed once and cached
per :class:`RetwisSweepConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from repro.experiments.grid import require_updates
from repro.sim.metrics import MetricsCollector
from repro.sim.runner import ExperimentResult, run_suite
from repro.sim.topology import partial_mesh
from repro.sync import keyed_bp_rr, keyed_classic
from repro.workloads import RetwisWorkload

#: The Zipf coefficients of Section V-C.
PAPER_COEFFICIENTS = (0.5, 0.75, 1.0, 1.25, 1.5)

RETWIS_ALGORITHMS = {"delta-based": keyed_classic, "delta-based-bp-rr": keyed_bp_rr}


@dataclass(frozen=True)
class RetwisConfig:
    """Scale parameters for the Retwis deployment.

    The paper runs 50 nodes / 10 000 users; the defaults here are scaled
    for interactive runs while preserving the contention shape.  Use
    :meth:`paper_scale` for the full-size configuration.
    """

    nodes: int = 20
    degree: int = 4
    users: int = 500
    rounds: int = 30
    ops_per_node: int = 8
    seed: int = 42

    @staticmethod
    def paper_scale() -> "RetwisConfig":
        return RetwisConfig(nodes=50, degree=4, users=10_000, rounds=60, ops_per_node=10)


@dataclass
class HalfView:
    """Per-half measurements for one algorithm run (Figure 11 splits)."""

    bytes_per_node_per_sec: float
    memory_bytes_per_node: float


@dataclass
class RetwisRun:
    """One algorithm × coefficient outcome with half-split views."""

    result: ExperimentResult

    def halves(self) -> Tuple[HalfView, HalfView]:
        duration = self.result.duration_ms
        first, second = self.result.metrics.split_at(duration / 2)
        return (
            self._view(first, duration / 2),
            self._view(second, duration / 2),
        )

    def _view(self, metrics: MetricsCollector, span_ms: float) -> HalfView:
        seconds = max(span_ms / 1000.0, 1e-9)
        per_node = metrics.total_bytes() / metrics.n_nodes
        memory_samples = metrics.memory
        memory = (
            sum(s.total_bytes for s in memory_samples) / len(memory_samples)
            if memory_samples
            else 0.0
        )
        return HalfView(
            bytes_per_node_per_sec=per_node / seconds,
            memory_bytes_per_node=memory,
        )

    def bandwidth_per_node_per_sec(self) -> float:
        seconds = max(self.result.duration_ms / 1000.0, 1e-9)
        metrics = self.result.metrics
        return metrics.total_bytes() / metrics.n_nodes / seconds

    def memory_bytes_per_node(self) -> float:
        return self.result.metrics.average_memory_bytes()


SweepKey = Tuple[float, str]


def retwis_workload(config: RetwisConfig, coefficient: float) -> RetwisWorkload:
    """The sweep's workload at one Zipf coefficient."""
    return RetwisWorkload(
        config.nodes,
        users=config.users,
        rounds=config.rounds,
        ops_per_node=config.ops_per_node,
        zipf_coefficient=coefficient,
        seed=config.seed,
    )


@dataclass(frozen=True)
class RetwisSweepConfig(RetwisConfig):
    """Figures 11 and 12: the Retwis deployment and its Zipf coefficients."""

    coefficients: Tuple[float, ...] = (0.5, 1.0, 1.25, 1.5)

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("coefficients: the sweep needs at least one Zipf coefficient")
        partial_mesh(self.nodes, self.degree)
        for coefficient in self.coefficients:
            retwis_workload(self, coefficient)
        require_updates(rounds=self.rounds, ops_per_node=self.ops_per_node)


@lru_cache(maxsize=4)
def run_retwis_sweep(config: RetwisSweepConfig) -> Dict[SweepKey, RetwisRun]:
    """Run the sweep; results keyed by (coefficient, algorithm)."""
    out: Dict[SweepKey, RetwisRun] = {}
    topology = partial_mesh(config.nodes, config.degree)
    for coefficient in config.coefficients:
        results = run_suite(
            RETWIS_ALGORITHMS,
            lambda c=coefficient: retwis_workload(config, c),
            topology,
        )
        for label, result in results.items():
            out[(coefficient, label)] = RetwisRun(result)
    return out

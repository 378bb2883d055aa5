"""Figure 1 — the motivating anomaly.

15 nodes in a partial-mesh topology replicate an always-growing set.
The left plot shows the number of elements sent over time: classic
delta-based synchronization transmits essentially as much as state-based.
The right plot shows CPU processing time relative to state-based:
delta-based additionally pays a substantial processing overhead for all
the buffering and joining it does to no transmission benefit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.grid import MESH_DEGREE, MicroConfig
from repro.experiments.report import format_table
from repro.net.clock import SYNC_INTERVAL_MS
from repro.sim.runner import ExperimentResult, run_suite
from repro.sim.topology import partial_mesh
from repro.sync import StateBased, classic
from repro.workloads import GSetWorkload


@dataclass
class Figure1Result:
    """Transmission series and CPU ratios for the two algorithms."""

    nodes: int
    rounds: int
    results: Dict[str, ExperimentResult]

    def cumulative_series(self, label: str) -> List[Tuple[float, int]]:
        """Cumulative elements sent per sync interval (left plot)."""
        return self.results[label].metrics.cumulative_units_series(SYNC_INTERVAL_MS)

    def transmission_ratio(self) -> float:
        """Classic delta-based transmission relative to state-based."""
        state = self.results["state-based"].transmission_units()
        delta = self.results["delta-based"].transmission_units()
        return delta / state if state else float("inf")

    def cpu_ratio_wall(self) -> float:
        """Measured CPU-time ratio of delta-based over state-based."""
        state = self.results["state-based"].processing_seconds()
        delta = self.results["delta-based"].processing_seconds()
        return delta / state if state else float("inf")

    def cpu_ratio_proxy(self) -> float:
        """Deterministic element-count proxy for the same ratio."""
        state = self.results["state-based"].processing_units()
        delta = self.results["delta-based"].processing_units()
        return delta / state if state else float("inf")

    def render(self) -> str:
        sample_points = 5
        rows = []
        state_series = self.cumulative_series("state-based")
        delta_series = self.cumulative_series("delta-based")
        step = max(1, len(state_series) // sample_points)
        for index in range(0, len(state_series), step):
            time_ms, state_total = state_series[index]
            delta_total = delta_series[min(index, len(delta_series) - 1)][1]
            rows.append((f"{time_ms / 1000:.0f}s", state_total, delta_total))
        table = format_table(
            ("time", "state-based (elems)", "delta-based (elems)"),
            rows,
            title=(
                f"Figure 1 — GSet on partial mesh({self.nodes}, {MESH_DEGREE}), "
                f"{self.rounds} events/node"
            ),
        )
        summary = (
            f"\ntransmission(delta)/transmission(state) = {self.transmission_ratio():.3f}"
            f"\ncpu(delta)/cpu(state): wall={self.cpu_ratio_wall():.2f}x "
            f"proxy={self.cpu_ratio_proxy():.2f}x"
        )
        return table + summary


def run_figure1(config: MicroConfig) -> Figure1Result:
    """Reproduce the Figure 1 experiment."""
    results = run_suite(
        {"state-based": StateBased, "delta-based": classic},
        lambda: GSetWorkload(config.nodes, config.rounds),
        partial_mesh(config.nodes, MESH_DEGREE),
    )
    return Figure1Result(nodes=config.nodes, rounds=config.rounds, results=results)

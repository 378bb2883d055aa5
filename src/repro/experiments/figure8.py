"""Figure 8 — transmission of GMap 10 %, 30 %, 60 %, 100 %.

The GMap K% benchmarks modulate contention: K% of 1000 keys change
between synchronization rounds.  Low K favours precise mechanisms
(deltas, Scuttlebutt, op-based) over state shipping; at K = 100 % the
map behaves like the GCounter — nearly everything is fresh every round,
and even BP+RR can only offer a modest improvement over state-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.grid import BASELINE, EvaluationGrid, MicroConfig, run_grid
from repro.experiments.report import format_table

GMAP_WORKLOADS = ("gmap-10", "gmap-30", "gmap-60", "gmap-100")


@dataclass
class Figure8Result:
    grid: EvaluationGrid

    def ratio(self, workload: str, topology: str, algorithm: str) -> float:
        return self.grid.cell(workload, topology).transmission_ratios()[algorithm]

    def reduction_vs_state_based(self, workload: str, topology: str, algorithm: str) -> float:
        """1 − units(algo)/units(state-based): the paper's "% reduction"."""
        cell = self.grid.cell(workload, topology)
        state = cell.results["state-based"].transmission_units()
        algo = cell.results[algorithm].transmission_units()
        return 1.0 - (algo / state if state else 0.0)

    def rows(self) -> List[Tuple[str, str, str, float, float]]:
        return self.grid.rows("transmission")

    def render(self) -> str:
        return format_table(
            ("workload", "topology", "algorithm", "units", f"ratio vs {BASELINE}"),
            self.rows(),
            title=(
                f"Figure 8 — GMap transmission, {self.grid.nodes} nodes, "
                f"{self.grid.rounds} events/node, 1000 keys"
            ),
        )


def run_figure8(config: MicroConfig) -> Figure8Result:
    """Reproduce the Figure 8 sweep over the four GMap contention levels."""
    return Figure8Result(
        run_grid(GMAP_WORKLOADS, nodes=config.nodes, rounds=config.rounds)
    )

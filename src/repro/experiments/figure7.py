"""Figure 7 — transmission of GSet and GCounter, tree and mesh.

Transmission ratio of every synchronization mechanism with respect to
delta-based BP+RR, on the two 15-node topologies of Figure 6.  The
paper's observations, all of which this driver reproduces in shape:

* classic delta-based ≈ state-based (almost no improvement);
* on the tree, BP alone attains the best delta result;
* on the mesh, BP barely helps and RR does the heavy lifting;
* Scuttlebutt variants beat classic on GSet but lose on GCounter —
  treating deltas as opaque values, they cannot compress increments
  that a lattice join would collapse;
* op-based follows the same trend for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.grid import BASELINE, EvaluationGrid, MicroConfig, run_grid
from repro.experiments.report import format_table


@dataclass
class Figure7Result:
    grid: EvaluationGrid

    def ratio(self, workload: str, topology: str, algorithm: str) -> float:
        return self.grid.cell(workload, topology).transmission_ratios()[algorithm]

    def rows(self) -> List[Tuple[str, str, str, float, float]]:
        return self.grid.rows("transmission")

    def render(self) -> str:
        return format_table(
            ("workload", "topology", "algorithm", "units", f"ratio vs {BASELINE}"),
            self.rows(),
            title=(
                f"Figure 7 — transmission, {self.grid.nodes} nodes, "
                f"{self.grid.rounds} events/node"
            ),
        )


def run_figure7(config: MicroConfig) -> Figure7Result:
    """Reproduce the Figure 7 sweep: GSet and GCounter × tree and mesh."""
    return Figure7Result(
        run_grid(("gset", "gcounter"), nodes=config.nodes, rounds=config.rounds)
    )

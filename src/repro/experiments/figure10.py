"""Figure 10 — memory footprint on the mesh topology.

Average resident memory (CRDT state plus synchronization buffers and
metadata) relative to delta-based BP+RR, for GCounter, GSet, GMap 10 %
and GMap 100 %.  The paper's observations:

* state-based keeps no synchronization metadata at all — it is the
  memory optimum;
* classic delta-based and delta-BP retain 1.1×–3.9× more than BP+RR
  because their δ-buffers hold fat redundant δ-groups;
* Scuttlebutt-GC tracks BP+RR closely on GSet/GMap 10 % since seen-by-
  everyone deltas are pruned; original Scuttlebutt never prunes and
  deteriorates for as long as updates keep coming;
* the vector-based protocols collapse on GCounter, where they cannot
  compress increments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.grid import (
    BASELINE,
    MESH_DEGREE,
    EvaluationGrid,
    MicroConfig,
    run_grid,
)
from repro.experiments.report import format_table
from repro.sim.topology import partial_mesh

FIGURE10_WORKLOADS = ("gcounter", "gset", "gmap-10", "gmap-100")


@dataclass
class Figure10Result:
    grid: EvaluationGrid

    def memory_ratio(self, workload: str, algorithm: str) -> float:
        return self.grid.cell(workload, "mesh").memory_ratios()[algorithm]

    def rows(self) -> List[Tuple[str, str, str, float, float]]:
        return self.grid.rows("memory")

    def render(self) -> str:
        return format_table(
            ("workload", "topology", "algorithm", "avg units", f"ratio vs {BASELINE}"),
            self.rows(),
            title=(
                f"Figure 10 — average memory, mesh({self.grid.nodes}, {MESH_DEGREE}), "
                f"{self.grid.rounds} events/node"
            ),
        )


def run_figure10(config: MicroConfig) -> Figure10Result:
    """Reproduce the Figure 10 memory sweep (mesh only, as in the paper)."""
    grid = run_grid(
        FIGURE10_WORKLOADS,
        nodes=config.nodes,
        rounds=config.rounds,
        topologies={"mesh": partial_mesh(config.nodes, MESH_DEGREE)},
    )
    return Figure10Result(grid)

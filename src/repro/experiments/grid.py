"""Shared machinery for the micro-benchmark evaluation grids.

Figures 7, 8, and 10 sweep the same objects: a set of synchronization
algorithms × a set of Table I workloads × the two Figure 6 topologies,
normalized against delta-based BP+RR.  This module runs those sweeps
once and exposes the transmission and memory views the figure drivers
slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.sim.runner import ExperimentResult, ratio_table, run_suite
from repro.sim.topology import Topology, partial_mesh, tree
from repro.sync import ALGORITHMS
from repro.workloads import make_micro_workload

#: The paper's evaluation baseline — everything is plotted against it.
BASELINE = "delta-based-bp-rr"

#: Every synchronization mechanism in the Section V-B comparison: the
#: paper's label table itself, not a copy of it.
ALL_ALGORITHMS: Dict[str, Callable] = ALGORITHMS


def paper_topologies(nodes: int = 15) -> Dict[str, Topology]:
    """The two Figure 6 overlays at the requested size."""
    return {"tree": tree(nodes, 2), "mesh": partial_mesh(nodes, 4)}


@dataclass
class GridCell:
    """One workload × topology cell: all algorithms' results."""

    workload: str
    topology: str
    results: Dict[str, ExperimentResult]

    def transmission_ratios(self) -> Dict[str, float]:
        return ratio_table(self.results, BASELINE, ExperimentResult.transmission_units)

    def memory_ratios(self) -> Dict[str, float]:
        return ratio_table(self.results, BASELINE, ExperimentResult.average_memory_units)


@dataclass
class EvaluationGrid:
    """The full sweep: cells indexed by (workload, topology)."""

    nodes: int
    rounds: int
    cells: Dict[Tuple[str, str], GridCell] = field(default_factory=dict)

    def cell(self, workload: str, topology: str) -> GridCell:
        return self.cells[(workload, topology)]

    def rows(self, view: str = "transmission") -> List[Tuple[str, str, str, float, float]]:
        """Flat rows: (workload, topology, algorithm, absolute, ratio)."""
        out = []
        for (workload, topology), cell in sorted(self.cells.items()):
            ratios = (
                cell.transmission_ratios()
                if view == "transmission"
                else cell.memory_ratios()
            )
            for label in sorted(cell.results):
                result = cell.results[label]
                absolute = (
                    result.transmission_units()
                    if view == "transmission"
                    else result.average_memory_units()
                )
                out.append((workload, topology, label, float(absolute), ratios[label]))
        return out


def run_grid(
    workloads: Sequence[str],
    *,
    nodes: int = 15,
    rounds: int = 100,
    topologies: Mapping[str, Topology] | None = None,
    algorithms: Mapping[str, Callable] | None = None,
) -> EvaluationGrid:
    """Run the evaluation grid and return every cell's results.

    Workloads are named by their Table I labels (``"gset"``,
    ``"gcounter"``, ``"gmap-30"`` …).  Every algorithm in a cell replays
    the identical update schedule.
    """
    topologies = dict(topologies) if topologies else paper_topologies(nodes)
    algorithms = dict(algorithms) if algorithms else dict(ALL_ALGORITHMS)
    grid = EvaluationGrid(nodes=nodes, rounds=rounds)
    for workload_name in workloads:
        for topo_name, topology in topologies.items():
            results = run_suite(
                algorithms,
                lambda: make_micro_workload(workload_name, nodes, rounds),
                topology,
            )
            grid.cells[(workload_name, topo_name)] = GridCell(
                workload=workload_name, topology=topo_name, results=results
            )
    return grid

"""Appendix B — the Figure 7 comparison on causal (add/remove) data.

The paper evaluates grow-only types and argues (Appendix B) that its
machinery covers the CRDTs used in practice.  This driver runs the
exact Figure 7 protocol grid — every synchronization mechanism on the
tree and mesh of Figure 6 — over an add-wins OR-set churn workload,
where deltas must carry causal-context tombstones, not just payload.

Expected shape (checked by ``tests/test_workloads_causal.py::TestAppendixBDriver``):
the paper's ordering is preserved — classic ≈ state-based on the mesh,
RR dominant with cycles, BP+RR best — with one new, quantified effect:
on the acyclic tree BP alone no longer matches BP+RR exactly (it does
for GSet), because re-adds and removals cover previously-shipped dots
and that context slice stays redundant downstream even without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.grid import BASELINE, MicroConfig, paper_topologies
from repro.experiments.report import format_table
from repro.sim.runner import ExperimentResult, run_suite
from repro.sync import ALGORITHMS
from repro.workloads.causal import AWSetChurnWorkload

#: Share of the churn workload's operations that are adds.
ADD_RATIO = 0.7


@dataclass
class AppendixBResult:
    """The causal-churn grid: topology → algorithm → measurements."""

    nodes: int
    rounds: int
    results: Dict[Tuple[str, str], ExperimentResult]

    def units(self, topology: str, algorithm: str) -> int:
        return self.results[(topology, algorithm)].transmission_units()

    def ratio(self, topology: str, algorithm: str) -> float:
        return self.units(topology, algorithm) / self.units(topology, BASELINE)

    def rows(self) -> List[Tuple[str, str, int, float]]:
        out = []
        for topology in ("tree", "mesh"):
            for algorithm in sorted(ALGORITHMS):
                out.append(
                    (
                        topology,
                        algorithm,
                        self.units(topology, algorithm),
                        self.ratio(topology, algorithm),
                    )
                )
        return out

    def render(self) -> str:
        return format_table(
            ("topology", "algorithm", "units", f"ratio vs {BASELINE}"),
            self.rows(),
            title=(
                f"Appendix B — AWSet churn (add ratio {ADD_RATIO}), "
                f"{self.nodes} nodes, {self.rounds} events/node"
            ),
        )


def run_appendixb(config: MicroConfig) -> AppendixBResult:
    """Run the full protocol grid over the AWSet churn workload."""
    results: Dict[Tuple[str, str], ExperimentResult] = {}
    for topology_name, topology in paper_topologies(config.nodes).items():
        suite = run_suite(
            ALGORITHMS,
            lambda: AWSetChurnWorkload(
                config.nodes, config.rounds, add_ratio=ADD_RATIO
            ),
            topology,
        )
        for algorithm, result in suite.items():
            results[(topology_name, algorithm)] = result
    return AppendixBResult(nodes=config.nodes, rounds=config.rounds, results=results)

"""Figure 9 — synchronization metadata versus cluster size.

Vector-based protocols pay metadata that grows with the number of nodes
``N``: given ``P`` neighbours and ``U`` pending updates per round, the
per-node metadata cost is

* Scuttlebutt — ``NP`` (a summary vector per neighbour);
* Scuttlebutt-GC — ``N²P`` (a knowledge matrix per neighbour);
* op-based — ``NPU`` (a vector clock per forwarded operation);
* delta-based — ``P`` (a sequence number per neighbour).

The paper measures, for 32 nodes synchronizing a GSet over a mesh with
4 neighbours and 20-byte node identifiers, metadata shares of 75 %,
99 %, and 97 % for Scuttlebutt, Scuttlebutt-GC and op-based, against
7.7 % for delta-based.  This driver sweeps the same mesh at increasing
sizes and reports measured metadata per node alongside the shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments.grid import MESH_DEGREE, require_updates
from repro.experiments.report import ascii_chart, format_table, human_bytes
from repro.sim.runner import ExperimentResult, run_suite
from repro.sim.topology import partial_mesh
from repro.sync import OpBased, Scuttlebutt, ScuttlebuttGC, delta_bp_rr
from repro.workloads import GSetWorkload

FIGURE9_ALGORITHMS = {
    "scuttlebutt": Scuttlebutt,
    "scuttlebutt-gc": ScuttlebuttGC,
    "op-based": OpBased,
    "delta-based-bp-rr": delta_bp_rr,
}


@dataclass(frozen=True)
class Figure9Config:
    """Figure 9: the cluster sizes swept and the update rounds of each."""

    sizes: Tuple[int, ...] = (8, 16, 32)
    rounds: int = 30

    def __post_init__(self) -> None:
        if len(self.sizes) < 2 or self.sizes[0] == self.sizes[-1]:
            raise ValueError(
                "sizes: the growth exponent needs a first and a last size that differ"
            )
        for n in self.sizes:
            partial_mesh(n, MESH_DEGREE)
            GSetWorkload(n, self.rounds)
        require_updates(rounds=self.rounds)


@dataclass
class Figure9Result:
    """Measured metadata per node for each cluster size × algorithm."""

    sizes: Sequence[int]
    rounds: int
    results: Dict[Tuple[int, str], ExperimentResult]

    def metadata_per_node(self, n: int, algorithm: str) -> float:
        metrics = self.results[(n, algorithm)].metrics
        return metrics.total_metadata_bytes() / metrics.n_nodes

    def metadata_fraction(self, n: int, algorithm: str) -> float:
        return self.results[(n, algorithm)].metadata_fraction()

    def growth_exponent(self, algorithm: str) -> float:
        """Empirical log-log slope of metadata-per-node vs cluster size.

        ≈1 for linear growth (Scuttlebutt, op-based), ≈2 for quadratic
        (Scuttlebutt-GC), ≈0 for constant (delta-based).
        """
        import math

        first, last = self.sizes[0], self.sizes[-1]
        lo = self.metadata_per_node(first, algorithm)
        hi = self.metadata_per_node(last, algorithm)
        if lo <= 0 or hi <= 0:
            return 0.0
        return math.log(hi / lo) / math.log(last / first)

    def rows(self) -> List[Tuple[int, str, str, float]]:
        out = []
        for n in self.sizes:
            for label in FIGURE9_ALGORITHMS:
                out.append(
                    (
                        n,
                        label,
                        human_bytes(self.metadata_per_node(n, label)),
                        self.metadata_fraction(n, label),
                    )
                )
        return out

    def render(self) -> str:
        table = format_table(
            ("nodes", "algorithm", "metadata/node", "metadata share"),
            self.rows(),
            title=(
                f"Figure 9 — metadata per node (GSet, mesh degree {MESH_DEGREE}, "
                f"{self.rounds} events/node)"
            ),
        )
        slopes = "\n".join(
            f"  {label:20s} growth exponent ≈ {self.growth_exponent(label):.2f}"
            for label in FIGURE9_ALGORITHMS
        )
        chart = ascii_chart(
            {
                label: [self.metadata_per_node(n, label) for n in self.sizes]
                for label in FIGURE9_ALGORITHMS
            },
            log=True,
            unit="B",
        )
        return (
            table
            + "\n(log-log growth of metadata/node with cluster size)\n"
            + slopes
            + f"\n\nmetadata/node across sizes {tuple(self.sizes)} (log scale):\n"
            + chart
        )


def run_figure9(config: Figure9Config) -> Figure9Result:
    """Reproduce the Figure 9 metadata sweep."""
    results: Dict[Tuple[int, str], ExperimentResult] = {}
    for n in config.sizes:
        suite = run_suite(
            FIGURE9_ALGORITHMS,
            lambda n=n: GSetWorkload(n, config.rounds),
            partial_mesh(n, MESH_DEGREE),
        )
        for label, result in suite.items():
            results[(n, label)] = result
    return Figure9Result(sizes=config.sizes, rounds=config.rounds, results=results)

"""Figure 11 — Retwis transmission bandwidth and memory vs contention.

Classic delta-based against delta-based BP+RR over the Retwis workload
at Zipf coefficients 0.5–1.5, reporting per-node transmission bandwidth
and per-node memory, split into the first and second half of the
experiment (the paper plots both halves on a log scale).

The paper's shape: at low contention (0.5) updates spread across many
objects, few objects see concurrent updates between rounds, and the
classic inflation check performs almost optimally; as contention rises,
classic re-buffers and re-ships ever-fatter δ-groups for the hot
objects while BP+RR keeps extracting only the novelty, so the gap
widens by orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.report import format_table, human_bytes
from repro.experiments.retwis_sweep import (
    RetwisRun,
    RetwisSweepConfig,
    SweepKey,
    run_retwis_sweep,
)


@dataclass
class Figure11Result:
    config: RetwisSweepConfig
    runs: Dict[SweepKey, RetwisRun]

    def bandwidth(self, coefficient: float, algorithm: str) -> float:
        return self.runs[(coefficient, algorithm)].bandwidth_per_node_per_sec()

    def memory(self, coefficient: float, algorithm: str) -> float:
        return self.runs[(coefficient, algorithm)].memory_bytes_per_node()

    def bandwidth_gap(self, coefficient: float) -> float:
        """classic / BP+RR transmission — the Figure 11 headline."""
        best = self.bandwidth(coefficient, "delta-based-bp-rr")
        return self.bandwidth(coefficient, "delta-based") / best if best else float("inf")

    def rows(self) -> List[Tuple]:
        out = []
        for coefficient in self.config.coefficients:
            for algorithm in ("delta-based", "delta-based-bp-rr"):
                run = self.runs[(coefficient, algorithm)]
                first, second = run.halves()
                out.append(
                    (
                        f"{coefficient:g}",
                        algorithm,
                        human_bytes(first.bytes_per_node_per_sec) + "/s",
                        human_bytes(second.bytes_per_node_per_sec) + "/s",
                        human_bytes(first.memory_bytes_per_node),
                        human_bytes(second.memory_bytes_per_node),
                    )
                )
        return out

    def render(self) -> str:
        return format_table(
            ("zipf", "algorithm", "bw/node (1st half)", "bw/node (2nd half)",
             "mem/node (1st half)", "mem/node (2nd half)"),
            self.rows(),
            title=(
                f"Figure 11 — Retwis, mesh({self.config.nodes}, {self.config.degree}), "
                f"{self.config.users} users, {self.config.rounds} rounds"
            ),
        )


def run_figure11(config: RetwisSweepConfig) -> Figure11Result:
    """Reproduce the Figure 11 contention sweep."""
    return Figure11Result(config=config, runs=run_retwis_sweep(config))

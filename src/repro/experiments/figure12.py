"""Figure 12 — CPU overhead of classic delta-based vs BP+RR on Retwis.

Classic delta-based produces and processes much larger synchronization
messages than BP+RR under contention, and pays for it in CPU: the paper
reports overheads of 0.4×, 5.5×, and 7.9× at Zipf coefficients 1, 1.25,
and 1.5.

Two measurements are reported for each coefficient:

* the wall-clock ratio — CPU seconds spent inside algorithm callbacks,
  which depends on the host machine but tracks the paper's metric;
* the deterministic proxy ratio — lattice units produced plus consumed,
  which is machine-independent and reproducible bit-for-bit.

The *overhead* is ``ratio − 1``, matching the paper's phrasing
("an overhead of 0.4x, 5.5x and 7.9x").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.report import format_table
from repro.experiments.retwis_sweep import (
    RetwisRun,
    RetwisSweepConfig,
    SweepKey,
    run_retwis_sweep,
)


@dataclass
class Figure12Result:
    config: RetwisSweepConfig
    runs: Dict[SweepKey, RetwisRun]

    def cpu_ratio_wall(self, coefficient: float) -> float:
        classic = self.runs[(coefficient, "delta-based")].result.processing_seconds()
        best = self.runs[(coefficient, "delta-based-bp-rr")].result.processing_seconds()
        return classic / best if best else float("inf")

    def cpu_ratio_proxy(self, coefficient: float) -> float:
        classic = self.runs[(coefficient, "delta-based")].result.processing_units()
        best = self.runs[(coefficient, "delta-based-bp-rr")].result.processing_units()
        return classic / best if best else float("inf")

    def overhead_wall(self, coefficient: float) -> float:
        """The paper's "overhead": ratio − 1."""
        return self.cpu_ratio_wall(coefficient) - 1.0

    def overhead_proxy(self, coefficient: float) -> float:
        return self.cpu_ratio_proxy(coefficient) - 1.0

    def rows(self) -> List[Tuple]:
        return [
            (
                f"{coefficient:g}",
                self.cpu_ratio_wall(coefficient),
                self.overhead_wall(coefficient),
                self.cpu_ratio_proxy(coefficient),
                self.overhead_proxy(coefficient),
            )
            for coefficient in self.config.coefficients
        ]

    def render(self) -> str:
        return format_table(
            ("zipf", "wall ratio", "wall overhead", "proxy ratio", "proxy overhead"),
            self.rows(),
            title=(
                "Figure 12 — CPU cost of classic delta-based relative to BP+RR "
                f"(Retwis, mesh({self.config.nodes}, {self.config.degree}))"
            ),
        )


def run_figure12(config: RetwisSweepConfig) -> Figure12Result:
    """Reproduce the Figure 12 CPU comparison (reuses the Figure 11 runs)."""
    return Figure12Result(config=config, runs=run_retwis_sweep(config))

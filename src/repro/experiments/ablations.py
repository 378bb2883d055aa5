"""Two ablations beyond the paper's figures.

* **Digest** — the Section VI lineage the paper builds on (Enes et al.,
  PMLDC 2016): bidirectional full-state exchange, state-driven and
  digest-driven synchronization of two replicas that diverged during a
  partition.  Digest-driven should win whenever states are large and
  mostly overlapping, because a digest scales with the *number* of
  irreducibles, not their size.
* **Granularity** — the modelling decision the Retwis deployment rests
  on: Algorithm 1 runs *per object* (as in the paper's 30 000-CRDT
  deployment, and as ``keyed_classic`` / ``keyed_bp_rr`` do), not over
  one store-wide composed CRDT.  With a store-wide inflation check one
  hot object drags every cold object's δ-groups back into the buffer,
  so classic collapses even at low contention; BP+RR is essentially
  unaffected, because its ∆ extraction is already per-irreducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.crdt import GSet
from repro.experiments.grid import require_updates
from repro.experiments.report import format_table
from repro.experiments.retwis_sweep import RetwisConfig, retwis_workload
from repro.sim.runner import ExperimentResult, run_suite
from repro.sim.topology import partial_mesh
from repro.sync import classic, delta_bp_rr, keyed_bp_rr, keyed_classic
from repro.sync.digest import (
    DigestExchange,
    digest_driven_sync,
    full_state_sync,
    state_driven_sync,
)

#: Every set element is padded to this many bytes (tweet-sized values).
ELEMENT_BYTES = 40

#: The granularity ablation's Zipf coefficient: the low-contention end of
#: Section V-C, where per-object classic is near optimal.
ZIPF = 0.5

GRANULARITY_ALGORITHMS = {
    "classic / whole-store": classic,
    "classic / per-object": keyed_classic,
    "bp+rr / whole-store": delta_bp_rr,
    "bp+rr / per-object": keyed_bp_rr,
}


@dataclass(frozen=True)
class DigestAblationConfig:
    """Two diverged GSet replicas: elements both hold, and each one's own."""

    shared: int = 2000
    each: int = 50

    def __post_init__(self) -> None:
        if self.shared < 0:
            raise ValueError(f"shared must be non-negative, got {self.shared}")
        require_updates(each=self.each)


@dataclass
class DigestAblationResult:
    config: DigestAblationConfig
    outcomes: Tuple[DigestExchange, ...]

    def render(self) -> str:
        return format_table(
            ("strategy", "messages", "bytes sent", "converged units"),
            [
                (o.strategy, o.messages, o.bytes_sent, o.converged_state.size_units())
                for o in self.outcomes
            ],
            title=(
                "Ablation — pairwise sync of diverged replicas "
                f"({self.config.shared} shared / {self.config.each} unique each)"
            ),
        )


def run_ablation_digest(config: DigestAblationConfig) -> DigestAblationResult:
    """Reconcile the two replicas with each pairwise strategy."""
    a, b = GSet("A"), GSet("B")
    for i in range(config.shared):
        element = f"shared-{i:06d}".ljust(ELEMENT_BYTES, "x")
        a.add(element)
        b.add(element)
    for i in range(config.each):
        a.add(f"only-a-{i:06d}".ljust(ELEMENT_BYTES, "x"))
        b.add(f"only-b-{i:06d}".ljust(ELEMENT_BYTES, "x"))
    return DigestAblationResult(
        config,
        tuple(
            sync(a.state, b.state)
            for sync in (full_state_sync, state_driven_sync, digest_driven_sync)
        ),
    )


@dataclass(frozen=True)
class GranularityConfig(RetwisConfig):
    """The Retwis deployment, replayed at Zipf :data:`ZIPF`."""

    def __post_init__(self) -> None:
        partial_mesh(self.nodes, self.degree)
        retwis_workload(self, ZIPF)
        require_updates(rounds=self.rounds, ops_per_node=self.ops_per_node)


@dataclass
class GranularityResult:
    config: GranularityConfig
    results: Dict[str, ExperimentResult]

    def transmission_bytes(self, label: str) -> int:
        return self.results[label].transmission_bytes()

    def render(self) -> str:
        return format_table(
            ("algorithm / granularity", "bytes transmitted", "converged"),
            [
                (label, result.transmission_bytes(), result.converged)
                for label, result in self.results.items()
            ],
            title=(
                f"Ablation — Algorithm 1 granularity on Retwis "
                f"({self.config.nodes} nodes, Zipf {ZIPF})"
            ),
        )


def run_ablation_granularity(config: GranularityConfig) -> GranularityResult:
    """Run classic and BP+RR, each whole-store and per-object."""
    return GranularityResult(
        config,
        run_suite(
            GRANULARITY_ALGORITHMS,
            lambda: retwis_workload(config, ZIPF),
            partial_mesh(config.nodes, config.degree),
        ),
    )

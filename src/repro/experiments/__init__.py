"""Drivers that regenerate every table and figure of the paper.

Each module reproduces one artifact of the evaluation section:

=============  ===========================================================
Driver         Paper artifact
=============  ===========================================================
``figure1``    Fig. 1 — classic delta ≈ state-based, with CPU overhead
``table1``     Table I — micro-benchmark definitions (verified)
``figure7``    Fig. 7 — GSet/GCounter transmission, tree + mesh
``figure8``    Fig. 8 — GMap 10/30/60/100 % transmission, tree + mesh
``figure9``    Fig. 9 — metadata per node vs cluster size
``figure10``   Fig. 10 — memory ratio vs BP+RR, mesh
``table2``     Table II — Retwis workload characterization (verified)
``figure11``   Fig. 11 — Retwis bandwidth and memory vs Zipf contention
``figure12``   Fig. 12 — Retwis CPU overhead of classic vs BP+RR
``appendixb``  App. B — the Figure 7 grid on causal (add/remove) data
=============  ===========================================================

The kv store scenarios (``kv_sweep``, ``kv_rebalance``, ``kv_serve``)
measure the same synchronizers inside the sharded store.

:data:`EXPERIMENTS` registers all of them for ``repro list`` and
``repro run``: each entry pairs a frozen config type, whose own
validation refuses every illegal shape, with its scale presets and a
run function.  Every ``run_*`` function also accepts scale parameters
defaulting to interactive-friendly sizes; the benchmark harness passes
the paper's sizes where practical.  All runs are deterministic.
"""

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.experiments.appendixb import AppendixBResult, run_appendixb
from repro.experiments.figure1 import Figure1Result, run_figure1
from repro.experiments.figure7 import Figure7Result, run_figure7
from repro.experiments.figure8 import Figure8Result, run_figure8
from repro.experiments.figure9 import Figure9Result, run_figure9
from repro.experiments.figure10 import Figure10Result, run_figure10
from repro.experiments.figure11 import Figure11Result, run_figure11
from repro.experiments.figure12 import Figure12Result, run_figure12
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.grid import ALL_ALGORITHMS, BASELINE, paper_topologies, run_grid
from repro.experiments.retwis_sweep import (
    PAPER_COEFFICIENTS,
    RetwisConfig,
    retwis_workload,
    run_retwis_sweep,
)
from repro.serve.deploy import build_cluster
from repro.sim.topology import partial_mesh
from repro.workloads import GCounterWorkload, GSetWorkload
from repro.experiments.kv_sweep import (
    DEFAULT_ALGORITHMS,
    DEFAULT_STRATEGIES,
    KV_ALGORITHMS,
    KVCell,
    KVConfig,
    KVFaultsConfig,
    KVRepairComparison,
    KVSweepConfig,
    KVSweepResult,
    RECOVERY_STRATEGIES,
    run_kv_cell,
    run_kv_repair_cell,
    run_kv_repair_comparison,
    run_kv_sweep,
)
from repro.experiments.kv_rebalance import (
    KVRebalanceConfig,
    KVRebalanceResult,
    RebalancePhase,
    run_kv_rebalance,
)
from repro.experiments.kv_serve import (
    KVQuorumResult,
    QuorumCell,
    QuorumConfig,
    run_kv_quorum,
    run_kv_quorum_cell,
)


def _require_updates(**counts: int) -> None:
    """Refuse a run that issues no update: every report compares what
    the protocols spend on updates, and with none it prints ``inf``,
    zeros or a division error."""
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be positive: the run compares the cost of updates, got {count}")


@dataclass(frozen=True)
class MicroConfig:
    """Figures 1, 7, 8, 10 and Appendix B: cluster size and update rounds."""

    nodes: int = 15
    rounds: int = 30

    def __post_init__(self) -> None:
        paper_topologies(self.nodes)
        GSetWorkload(self.nodes, self.rounds)
        _require_updates(rounds=self.rounds)


@dataclass(frozen=True)
class Table1Config:
    """Table I: the cluster size the workload definitions are checked on."""

    nodes: int = 15

    def __post_init__(self) -> None:
        # The run's other workloads refuse no other node count.
        GCounterWorkload(self.nodes)


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
            partial_mesh(n, 4)
            GSetWorkload(n, self.rounds)
        _require_updates(rounds=self.rounds)


@dataclass(frozen=True)
class Table2Config:
    """Table II: how many Retwis operations are generated and measured."""

    ops: int = 20_000


@dataclass(frozen=True)
class RetwisSweepConfig(RetwisConfig):
    """Figures 11 and 12: the Retwis deployment and its Zipf coefficients."""

    coefficients: Tuple[float, ...] = (0.5, 1.0, 1.25, 1.5)

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("coefficients: the sweep needs at least one Zipf coefficient")
        partial_mesh(self.nodes, self.degree)
        for coefficient in self.coefficients:
            retwis_workload(self, coefficient)
        _require_updates(rounds=self.rounds, ops_per_node=self.ops_per_node)


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: ``run(config)`` renders a report.

    ``scales`` maps each preset name (``ci``: seconds, ``default``,
    ``paper``: the paper's deployment) to a ``config`` value; ``in_all``
    marks the paper artifacts ``repro run all`` regenerates.
    """

    description: str
    config: type
    scales: Mapping[str, Any]
    run: Callable[[Any], Any]
    in_all: bool = True


_MICRO_SCALES = {
    "ci": MicroConfig(nodes=8, rounds=10),
    "default": MicroConfig(),
    "paper": MicroConfig(rounds=100),
}

_RETWIS_SCALES = {
    "ci": RetwisSweepConfig(
        nodes=10, users=120, rounds=10, ops_per_node=6, coefficients=(0.5, 1.0, 1.5)
    ),
    "default": RetwisSweepConfig(),
    "paper": RetwisSweepConfig(
        **asdict(RetwisConfig.paper_scale()), coefficients=PAPER_COEFFICIENTS
    ),
}


def _micro(description: str, run: Callable[..., Any]) -> Experiment:
    return Experiment(
        description,
        MicroConfig,
        _MICRO_SCALES,
        lambda config: run(nodes=config.nodes, rounds=config.rounds),
    )


def _retwis(description: str, run: Callable[..., Any]) -> Experiment:
    return Experiment(
        description,
        RetwisSweepConfig,
        _RETWIS_SCALES,
        lambda config: run(config.coefficients, config),
    )


#: Every experiment ``repro list`` names and ``repro run`` runs: the
#: paper's artifacts (``in_all``) and the kv store scenarios.
EXPERIMENTS: Dict[str, Experiment] = {
    "appendixb": _micro(
        "the Figure 7 grid on causal add/remove data (OR-set)", run_appendixb
    ),
    "figure1": _micro(
        "classic delta ≈ state-based on a 15-node mesh (GSet)", run_figure1
    ),
    "table1": Experiment(
        "micro-benchmark definitions (workload registry)",
        Table1Config,
        {"ci": Table1Config(nodes=8), "default": Table1Config(), "paper": Table1Config()},
        lambda config: run_table1(nodes=config.nodes),
    ),
    "figure7": _micro("transmission ratios, GSet & GCounter, tree + mesh", run_figure7),
    "figure8": _micro(
        "transmission ratios, GMap 10/30/60/100%, tree + mesh", run_figure8
    ),
    "figure9": Experiment(
        "metadata bytes per node vs cluster size",
        Figure9Config,
        {
            "ci": Figure9Config(sizes=(8, 16), rounds=10),
            "default": Figure9Config(),
            "paper": Figure9Config(sizes=(8, 16, 32, 48), rounds=100),
        },
        lambda config: run_figure9(sizes=config.sizes, rounds=config.rounds),
    ),
    "figure10": _micro("memory ratios vs BP+RR on the mesh", run_figure10),
    "table2": Experiment(
        "Retwis workload characterization",
        Table2Config,
        dict.fromkeys(("ci", "default", "paper"), Table2Config()),
        lambda config: run_table2(ops=config.ops),
    ),
    "figure11": _retwis("Retwis bandwidth & memory vs Zipf contention", run_figure11),
    "figure12": _retwis("CPU overhead of classic vs BP+RR (Retwis)", run_figure12),
    "kv-sweep": Experiment(
        "synchronization protocols over the sharded kv store",
        KVSweepConfig,
        {
            "ci": KVSweepConfig(replicas=8, keys=200, rounds=8, ops_per_node=4),
            "default": KVSweepConfig(),
        },
        lambda config: run_kv_sweep(config, config.algorithms),
        in_all=False,
    ),
    "kv-faults": Experiment(
        "recovery strategies on one seeded partition + crash replay",
        KVFaultsConfig,
        {
            "ci": KVFaultsConfig(
                replicas=8, keys=200, rounds=9, ops_per_node=4, repair_interval=3
            ),
            "default": KVFaultsConfig(),
        },
        lambda config: run_kv_repair_comparison(
            config, config.algorithm, config.strategies
        ),
        in_all=False,
    ),
    "kv-rebalance": Experiment(
        "live add + decommission: WAL-segment handoff vs full-state transfer",
        KVRebalanceConfig,
        {
            "ci": KVRebalanceConfig(
                replicas=6, keys=120, rounds=6, ops_per_node=3, shards=12,
                replication=2, repair_interval=3,
            ),
            "default": KVRebalanceConfig(),
        },
        lambda config: run_kv_rebalance(config, config.algorithm),
        in_all=False,
    ),
    "kv-quorum": Experiment(
        "client latency vs staleness under read quorums (replica processes)",
        QuorumConfig,
        {
            "ci": QuorumConfig(keys=24, batches=3, ops_per_batch=20),
            "default": QuorumConfig(),
        },
        run_kv_quorum,
        in_all=False,
    ),
}

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "MicroConfig",
    "Table1Config",
    "Figure9Config",
    "Table2Config",
    "RetwisSweepConfig",
    "ALL_ALGORITHMS",
    "BASELINE",
    "run_grid",
    "DEFAULT_ALGORITHMS",
    "KV_ALGORITHMS",
    "KVCell",
    "KVConfig",
    "KVFaultsConfig",
    "KVSweepConfig",
    "KVRebalanceConfig",
    "KVRebalanceResult",
    "KVRepairComparison",
    "KVSweepResult",
    "RebalancePhase",
    "run_kv_cell",
    "run_kv_rebalance",
    "run_kv_repair_cell",
    "run_kv_repair_comparison",
    "run_kv_sweep",
    "KVQuorumResult",
    "QuorumCell",
    "QuorumConfig",
    "build_cluster",
    "run_kv_quorum",
    "run_kv_quorum_cell",
    "RetwisConfig",
    "run_retwis_sweep",
    "Figure1Result",
    "run_figure1",
    "AppendixBResult",
    "run_appendixb",
    "Figure7Result",
    "run_figure7",
    "Figure8Result",
    "run_figure8",
    "Figure9Result",
    "run_figure9",
    "Figure10Result",
    "run_figure10",
    "Figure11Result",
    "run_figure11",
    "Figure12Result",
    "run_figure12",
    "Table1Result",
    "run_table1",
    "Table2Result",
    "run_table2",
]

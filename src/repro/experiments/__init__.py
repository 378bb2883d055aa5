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
validation refuses every illegal shape, with its scale presets (plain
field values, built and validated only for the run that picks one) and
a run function.  Every ``run_*`` function takes exactly one argument, a
value of its entry's config type, and reads every setting from it;
the config type lives in the module of the runner that reads it.  All
runs are deterministic.
"""

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Mapping

from repro.experiments.appendixb import AppendixBResult, run_appendixb
from repro.experiments.figure1 import Figure1Result, run_figure1
from repro.experiments.figure7 import Figure7Result, run_figure7
from repro.experiments.figure8 import Figure8Result, run_figure8
from repro.experiments.figure9 import Figure9Config, Figure9Result, run_figure9
from repro.experiments.figure10 import Figure10Result, run_figure10
from repro.experiments.figure11 import Figure11Result, run_figure11
from repro.experiments.figure12 import Figure12Result, run_figure12
from repro.experiments.table1 import Table1Config, Table1Result, run_table1
from repro.experiments.table2 import Table2Config, Table2Result, run_table2
from repro.experiments.grid import BASELINE, MicroConfig, run_grid
from repro.experiments.retwis_sweep import (
    PAPER_COEFFICIENTS,
    RetwisConfig,
    RetwisSweepConfig,
    run_retwis_sweep,
)
from repro.serve.deploy import build_cluster
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


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: ``run(config)`` renders a report.

    ``scales`` maps each preset name (``ci``: seconds, ``default``,
    ``paper``: the paper's deployment) to the field values it sets on
    ``config`` — the shape ``--config`` takes, so
    ``build_config(config, {**preset, **values})`` builds a run; ``in_all``
    marks the paper artifacts ``repro run all`` regenerates.
    """

    description: str
    config: type
    scales: Mapping[str, Mapping[str, Any]]
    run: Callable[[Any], Any]
    in_all: bool = True


_MICRO_SCALES = {"ci": {"nodes": 8, "rounds": 10}, "default": {}, "paper": {"rounds": 100}}

_RETWIS_SCALES = {
    "ci": {
        "nodes": 10, "users": 120, "rounds": 10, "ops_per_node": 6,
        "coefficients": (0.5, 1.0, 1.5),
    },
    "default": {},
    "paper": {**asdict(RetwisConfig.paper_scale()), "coefficients": PAPER_COEFFICIENTS},
}


#: Every experiment ``repro list`` names and ``repro run`` runs: the
#: paper's artifacts (``in_all``) and the kv store scenarios.
EXPERIMENTS: Dict[str, Experiment] = {
    "appendixb": Experiment(
        "the Figure 7 grid on causal add/remove data (OR-set)",
        MicroConfig,
        _MICRO_SCALES,
        run_appendixb,
    ),
    "figure1": Experiment(
        "classic delta ≈ state-based on a 15-node mesh (GSet)",
        MicroConfig,
        _MICRO_SCALES,
        run_figure1,
    ),
    "table1": Experiment(
        "micro-benchmark definitions (workload registry)",
        Table1Config,
        {"ci": {"nodes": 8}, "default": {}, "paper": {}},
        run_table1,
    ),
    "figure7": Experiment(
        "transmission ratios, GSet & GCounter, tree + mesh",
        MicroConfig,
        _MICRO_SCALES,
        run_figure7,
    ),
    "figure8": Experiment(
        "transmission ratios, GMap 10/30/60/100%, tree + mesh",
        MicroConfig,
        _MICRO_SCALES,
        run_figure8,
    ),
    "figure9": Experiment(
        "metadata bytes per node vs cluster size",
        Figure9Config,
        {
            "ci": {"sizes": (8, 16), "rounds": 10},
            "default": {},
            "paper": {"sizes": (8, 16, 32, 48), "rounds": 100},
        },
        run_figure9,
    ),
    "figure10": Experiment(
        "memory ratios vs BP+RR on the mesh", MicroConfig, _MICRO_SCALES, run_figure10
    ),
    "table2": Experiment(
        "Retwis workload characterization",
        Table2Config,
        dict.fromkeys(("ci", "default", "paper"), {}),
        run_table2,
    ),
    "figure11": Experiment(
        "Retwis bandwidth & memory vs Zipf contention",
        RetwisSweepConfig,
        _RETWIS_SCALES,
        run_figure11,
    ),
    "figure12": Experiment(
        "CPU overhead of classic vs BP+RR (Retwis)",
        RetwisSweepConfig,
        _RETWIS_SCALES,
        run_figure12,
    ),
    "kv-sweep": Experiment(
        "synchronization protocols over the sharded kv store",
        KVSweepConfig,
        {"ci": {"replicas": 8, "keys": 200, "rounds": 8, "ops_per_node": 4}, "default": {}},
        run_kv_sweep,
        in_all=False,
    ),
    "kv-faults": Experiment(
        "recovery strategies on one seeded partition + crash replay",
        KVFaultsConfig,
        {
            "ci": {
                "replicas": 8, "keys": 200, "rounds": 9, "ops_per_node": 4,
                "repair_interval": 3,
            },
            "default": {},
        },
        run_kv_repair_comparison,
        in_all=False,
    ),
    "kv-rebalance": Experiment(
        "live add + decommission: WAL-segment handoff vs full-state transfer",
        KVRebalanceConfig,
        {
            "ci": {
                "replicas": 6, "keys": 120, "rounds": 6, "ops_per_node": 3,
                "shards": 12, "replication": 2, "repair_interval": 3,
            },
            "default": {},
        },
        run_kv_rebalance,
        in_all=False,
    ),
    "kv-quorum": Experiment(
        "client latency vs staleness under read quorums (replica processes)",
        QuorumConfig,
        {"ci": {"keys": 24, "batches": 3, "ops_per_batch": 20}, "default": {}},
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

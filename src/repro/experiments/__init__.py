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

Every ``run_*`` function accepts scale parameters defaulting to
interactive-friendly sizes; the benchmark harness passes the paper's
sizes where practical.  All runs are deterministic.
"""

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
from repro.experiments.grid import ALL_ALGORITHMS, BASELINE, run_grid
from repro.experiments.retwis_sweep import RetwisConfig, run_retwis_sweep
from repro.serve.deploy import build_cluster
from repro.experiments.kv_sweep import (
    DEFAULT_ALGORITHMS,
    DEFAULT_STRATEGIES,
    KV_ALGORITHMS,
    KVCell,
    KVConfig,
    KVRepairComparison,
    KVSweepResult,
    RECOVERY_STRATEGIES,
    run_kv_cell,
    run_kv_repair_cell,
    run_kv_repair_comparison,
    run_kv_sweep,
)
from repro.experiments.kv_rebalance import (
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

#: Registry mapping artifact identifiers to their drivers.
EXPERIMENTS = {
    "appendixb": run_appendixb,
    "figure1": run_figure1,
    "table1": run_table1,
    "figure7": run_figure7,
    "figure8": run_figure8,
    "figure9": run_figure9,
    "figure10": run_figure10,
    "table2": run_table2,
    "figure11": run_figure11,
    "figure12": run_figure12,
}

__all__ = [
    "EXPERIMENTS",
    "ALL_ALGORITHMS",
    "BASELINE",
    "run_grid",
    "DEFAULT_ALGORITHMS",
    "KV_ALGORITHMS",
    "KVCell",
    "KVConfig",
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

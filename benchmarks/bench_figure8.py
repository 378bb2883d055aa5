"""Figure 8 — transmission of GMap 10 %, 30 %, 60 %, 100 %.

Regenerates the contention sweep over the 1000-key grow-only map on
both topologies, asserting the Section V-B.1 trends.
"""

import pytest

from conftest import GMAP_ROUNDS
from repro.experiments import MicroConfig, run_figure8
from repro.experiments.figure8 import GMAP_WORKLOADS


@pytest.mark.benchmark(group="figure8")
def test_figure8(benchmark, report_sink):
    result = benchmark.pedantic(
        run_figure8,
        args=(MicroConfig(nodes=15, rounds=GMAP_ROUNDS),),
        rounds=1,
        iterations=1,
    )
    report_sink("figure8", result.render())

    for workload in GMAP_WORKLOADS:
        # BP suffices if the graph is acyclic.  For gmap-10 and
        # gmap-100 it is *exactly* optimal; at mid contention a small
        # residue (≲ 25 %) remains that only RR can trim: two nodes
        # bumping the same key from the same base produce identical
        # entries travelling from two origins, and BP deduplicates
        # provenance, not content.
        assert result.ratio(workload, "tree", "delta-based-bp") <= 1.25
        # On the tree BP still beats RR-only, by a wide margin.
        assert result.ratio(workload, "tree", "delta-based-bp") < result.ratio(
            workload, "tree", "delta-based-rr"
        )
        # ...but RR is crucial in the general (cyclic) case.
        assert result.ratio(workload, "mesh", "delta-based-rr") < result.ratio(
            workload, "mesh", "delta-based-bp"
        )
    for workload in ("gmap-10", "gmap-100"):
        assert result.ratio(workload, "tree", "delta-based-bp") == 1.0

    # The BP+RR saving vs state-based shrinks as contention rises, and
    # at GMap 100% the improvement is modest.
    reductions = [
        result.reduction_vs_state_based(w, "mesh", "delta-based-bp-rr")
        for w in GMAP_WORKLOADS
    ]
    assert reductions[0] > reductions[-1]
    assert 0.0 < reductions[-1] < 0.6

    # Scuttlebutt reduces transmission vs state-based at low contention.
    assert result.reduction_vs_state_based("gmap-10", "mesh", "scuttlebutt") > 0.2

"""Ablation — do the paper's optimizations survive removals?

Not a paper figure: the paper evaluates grow-only types, and its
Appendix B argues the machinery extends to the CRDTs used in practice.
This bench makes that claim quantitative by re-running the Figure 7
protocol grid (every synchronizer, both Figure 6 topologies) over an
add-wins OR-set churn workload, where deltas must carry *tombstone*
context entries, not just payload.

Expected shape — the paper's ordering must be preserved:

* classic delta ≈ state-based on the mesh (the Figure 1 anomaly);
* BP recovers most of the cost on the tree, RR on the mesh;
* BP+RR transmits the least among the delta variants.

One departure from the grow-only world is itself a finding: on the
acyclic tree BP alone no longer reaches the optimum (it does for GSet),
because causal deltas whose contexts cover previously-shipped dots are
partially redundant downstream even without cycles — residue only RR
can trim.
"""

import pytest

from repro.experiments import MicroConfig, run_appendixb

from conftest import MICRO_ROUNDS


@pytest.mark.benchmark(group="ablation-causal")
def test_causal_churn_ablation(benchmark, report_sink):
    config = MicroConfig(nodes=15, rounds=max(10, MICRO_ROUNDS // 2))
    result = benchmark.pedantic(run_appendixb, args=(config,), rounds=1, iterations=1)
    report_sink("ablation_causal", result.render())

    # The Figure 1 anomaly: classic delta is no better than state-based.
    assert result.units("mesh", "delta-based") > 0.8 * result.units(
        "mesh", "state-based"
    )
    # RR dominates BP when the topology has cycles.
    assert result.units("mesh", "delta-based-rr") < result.units(
        "mesh", "delta-based-bp"
    )
    # BP+RR is the best delta variant on both topologies.
    for topology in ("tree", "mesh"):
        assert result.ratio(topology, "delta-based") >= 1.0
        assert result.ratio(topology, "delta-based-bp") >= 1.0
        assert result.ratio(topology, "delta-based-rr") >= 1.0
    # On the acyclic tree, BP alone gets close to the BP+RR optimum —
    # but unlike the paper's grow-only types it does not reach it:
    # re-adds and removals cover previously-shipped dots, and that
    # slice of causal context is redundant for downstream nodes even
    # without cycles.  Only RR trims it.
    assert result.ratio("tree", "delta-based-bp") <= 1.3
    assert result.units("tree", "delta-based-bp") < result.units(
        "tree", "delta-based-rr"
    )
    # The vector-based baselines still pay their metadata tax.
    assert result.ratio("mesh", "scuttlebutt-gc") > result.ratio(
        "mesh", "delta-based-bp-rr"
    )
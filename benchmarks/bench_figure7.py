"""Figure 7 — transmission of GSet and GCounter on tree and mesh.

Regenerates the full eight-algorithm comparison normalized against
delta-based BP+RR, asserting every qualitative claim of Section V-B.1.
"""

import pytest

from conftest import MICRO_ROUNDS
from repro.experiments import MicroConfig, run_figure7


@pytest.mark.benchmark(group="figure7")
def test_figure7(benchmark, report_sink):
    result = benchmark.pedantic(
        run_figure7,
        args=(MicroConfig(nodes=15, rounds=MICRO_ROUNDS),),
        rounds=1,
        iterations=1,
    )
    report_sink("figure7", result.render())

    # Classic delta-based presents almost no improvement over state-based.
    classic_mesh = result.ratio("gset", "mesh", "delta-based")
    state_mesh = result.ratio("gset", "mesh", "state-based")
    assert classic_mesh > 0.9 * state_mesh

    # In the tree topology BP alone attains the best result.
    assert result.ratio("gset", "tree", "delta-based-bp") == 1.0
    assert result.ratio("gcounter", "tree", "delta-based-bp") == 1.0

    # With a partial mesh, BP has little effect and RR contributes most.
    assert result.ratio("gset", "mesh", "delta-based-bp") > 0.8 * classic_mesh
    assert result.ratio("gset", "mesh", "delta-based-rr") < 0.3 * classic_mesh

    # Scuttlebutt variants beat classic delta-based on the GSet...
    assert result.ratio("gset", "mesh", "scuttlebutt") < classic_mesh
    # ...but lose to state-based on the GCounter: opaque values cannot
    # compress under lattice joins.
    assert result.ratio("gcounter", "mesh", "scuttlebutt") > result.ratio(
        "gcounter", "mesh", "state-based"
    )
    assert result.ratio("gcounter", "mesh", "op-based") > result.ratio(
        "gcounter", "mesh", "state-based"
    )

    # Even BP+RR is not much better than state-based for the GCounter.
    assert result.ratio("gcounter", "mesh", "state-based") < 2.5

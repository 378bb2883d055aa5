"""Figure 10 — average memory ratio with respect to BP+RR (mesh).

Regenerates the memory comparison for GCounter, GSet, GMap 10 % and
GMap 100 %, asserting the Section V-B.3 claims.
"""

import pytest

from conftest import GMAP_ROUNDS
from repro.experiments import MicroConfig, run_figure10
from repro.experiments.figure10 import FIGURE10_WORKLOADS


@pytest.mark.benchmark(group="figure10")
def test_figure10(benchmark, report_sink):
    result = benchmark.pedantic(
        run_figure10,
        args=(MicroConfig(nodes=15, rounds=GMAP_ROUNDS),),
        rounds=1,
        iterations=1,
    )
    report_sink("figure10", result.render())

    # State-based needs no synchronization metadata: memory-optimal.
    for workload in FIGURE10_WORKLOADS:
        assert result.memory_ratio(workload, "state-based") <= 1.0

    # Classic and BP hold fatter δ-buffers than BP+RR.
    for workload in ("gset", "gmap-10", "gmap-100"):
        assert result.memory_ratio(workload, "delta-based") > 1.0
        assert result.memory_ratio(workload, "delta-based-bp") > 1.0

    # The vector-based protocols are the heaviest on the GCounter,
    # where they cannot compress increments.
    vector_min = min(
        result.memory_ratio("gcounter", label)
        for label in ("scuttlebutt", "scuttlebutt-gc", "op-based")
    )
    delta_max = max(
        result.memory_ratio("gcounter", label)
        for label in ("delta-based", "delta-based-bp", "delta-based-bp-rr")
    )
    assert vector_min > delta_max

    # Scuttlebutt-GC prunes its store and lands near BP+RR on GMap 10 %.
    assert result.memory_ratio("gmap-10", "scuttlebutt-gc") < result.memory_ratio(
        "gmap-10", "scuttlebutt"
    )

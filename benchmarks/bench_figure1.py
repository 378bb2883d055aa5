"""Figure 1 — classic delta-based vs state-based on a 15-node mesh.

Regenerates the paper's motivating experiment: the cumulative number of
set elements transmitted over time for both algorithms, plus the CPU
processing-time ratio of delta-based with respect to state-based.
"""

import pytest

from conftest import MICRO_ROUNDS
from repro.experiments import MicroConfig, run_figure1


@pytest.mark.benchmark(group="figure1")
def test_figure1(benchmark, report_sink):
    result = benchmark.pedantic(
        run_figure1,
        args=(MicroConfig(nodes=15, rounds=MICRO_ROUNDS),),
        rounds=1,
        iterations=1,
    )
    report_sink("figure1", result.render())

    # Shape: delta-based transmits essentially as much as state-based...
    assert result.transmission_ratio() > 0.9
    # ...while paying a CPU premium for all the buffering and joining.
    assert result.cpu_ratio_wall() > 1.0
    # Both series keep growing for the whole run (always-growing set).
    for label in ("state-based", "delta-based"):
        series = result.cumulative_series(label)
        assert series[-1][1] > series[len(series) // 2][1]

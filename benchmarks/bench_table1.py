"""Table I — the micro-benchmark definitions, verified and printed."""

import pytest

from repro.experiments import Table1Config, run_table1


@pytest.mark.benchmark(group="table1")
def test_table1(benchmark, report_sink):
    result = benchmark.pedantic(
        run_table1, args=(Table1Config(),), rounds=1, iterations=1
    )
    report_sink("table1", result.render())
    assert result.all_verified()

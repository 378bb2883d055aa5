"""Table II — the Retwis workload characterization, measured."""

import pytest

from repro.experiments import Table2Config, run_table2


@pytest.mark.benchmark(group="table2")
def test_table2(benchmark, report_sink):
    result = benchmark.pedantic(
        run_table2, args=(Table2Config(ops=20_000),), rounds=1, iterations=1
    )
    report_sink("table2", result.render())
    assert result.mix_close_to_paper()
    assert result.update_rules_hold()

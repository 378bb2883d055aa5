"""Figure 12 — CPU overhead of classic delta-based vs BP+RR on Retwis.

Regenerates the processing-cost comparison across Zipf coefficients.
The deterministic element-count proxy carries the assertions (it is
machine-independent); the wall-clock ratio is reported alongside.
"""

import pytest

from conftest import retwis_config
from repro.experiments import run_figure12


@pytest.mark.benchmark(group="figure12")
def test_figure12(benchmark, report_sink):
    result = benchmark.pedantic(
        run_figure12,
        args=(retwis_config(),),
        rounds=1,
        iterations=1,
    )
    coefficients = result.config.coefficients
    report_sink("figure12", result.render())

    # The overhead grows with contention (paper: 0.4x → 5.5x → 7.9x).
    proxies = [result.cpu_ratio_proxy(c) for c in coefficients]
    assert proxies == sorted(proxies)
    assert result.overhead_proxy(coefficients[0]) < result.overhead_proxy(
        coefficients[-1]
    )
    # At high contention classic pays a multiple of BP+RR's work.
    assert result.cpu_ratio_proxy(1.5) > 2.0
    # Wall-clock agrees in direction at the extremes.
    assert result.cpu_ratio_wall(1.5) > result.cpu_ratio_wall(0.5) * 0.8

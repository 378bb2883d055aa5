"""Figure 11 — Retwis transmission and memory vs Zipf contention.

Regenerates the classic-vs-BP+RR comparison over the Retwis application
at Zipf coefficients 0.5–1.5, including the first/second-half split the
paper plots.  The sweep is shared with the Figure 12 benchmark via an
in-process cache, so the two benches cost one sweep together.
"""

import pytest

from conftest import retwis_config
from repro.experiments import run_figure11


@pytest.mark.benchmark(group="figure11")
def test_figure11(benchmark, report_sink):
    result = benchmark.pedantic(
        run_figure11,
        args=(retwis_config(),),
        rounds=1,
        iterations=1,
    )
    coefficients = result.config.coefficients
    report_sink("figure11", result.render())

    # Low contention: updates spread across objects, few concurrent
    # updates per object between rounds — the naive inflation check
    # performs almost optimally.
    assert result.bandwidth_gap(0.5) < 2.5

    # The classic/BP+RR gap widens monotonically in contention.
    gaps = [result.bandwidth_gap(c) for c in coefficients]
    assert gaps[-1] > 2 * gaps[0]
    assert gaps == sorted(gaps)

    # Memory tells the same story at the extremes.
    low_mem = result.memory(0.5, "delta-based") / result.memory(
        0.5, "delta-based-bp-rr"
    )
    high_mem = result.memory(1.5, "delta-based") / result.memory(
        1.5, "delta-based-bp-rr"
    )
    assert high_mem > low_mem

    # Classic's bandwidth keeps rising with the coefficient — the
    # unsustainable trajectory the paper calls out.
    classic_bw = [result.bandwidth(c, "delta-based") for c in coefficients]
    assert classic_bw[-1] > classic_bw[0]

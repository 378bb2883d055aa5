"""Figure 9 — synchronization metadata per node vs cluster size.

Regenerates the metadata sweep (GSet over meshes of growing size,
20-byte node identifiers) and asserts the asymptotic shapes: linear for
Scuttlebutt, quadratic for Scuttlebutt-GC, heavier-than-linear for
op-based, constant-ish for delta-based — and the dominance of metadata
in the vector-based protocols' traffic.
"""

import pytest

from conftest import FIGURE9_ROUNDS, FIGURE9_SIZES
from repro.experiments import Figure9Config, run_figure9


@pytest.mark.benchmark(group="figure9")
def test_figure9(benchmark, report_sink):
    result = benchmark.pedantic(
        run_figure9,
        args=(Figure9Config(sizes=FIGURE9_SIZES, rounds=FIGURE9_ROUNDS),),
        rounds=1,
        iterations=1,
    )
    report_sink("figure9", result.render())

    largest = FIGURE9_SIZES[-1]

    # Growth shapes (log-log slope of metadata/node vs cluster size).
    assert 0.7 < result.growth_exponent("scuttlebutt") < 1.5
    assert result.growth_exponent("scuttlebutt-gc") > 1.5
    assert result.growth_exponent("op-based") > 1.2
    assert result.growth_exponent("delta-based-bp-rr") < 0.5

    # Metadata dominates the vector-based protocols' transmissions
    # (the paper measures 75 % / 99 % / 97 % at 32 nodes)...
    assert result.metadata_fraction(largest, "scuttlebutt") > 0.6
    assert result.metadata_fraction(largest, "scuttlebutt-gc") > 0.9
    assert result.metadata_fraction(largest, "op-based") > 0.9
    # ...while delta-based metadata stays marginal (paper: 7.7 %).
    assert result.metadata_fraction(largest, "delta-based-bp-rr") < 0.12

    # Absolute ordering at the largest size.
    assert (
        result.metadata_per_node(largest, "delta-based-bp-rr")
        < result.metadata_per_node(largest, "scuttlebutt")
        < result.metadata_per_node(largest, "scuttlebutt-gc")
    )

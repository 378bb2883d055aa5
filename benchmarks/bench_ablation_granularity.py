"""Ablation — synchronization granularity for multi-object stores.

The Retwis deployment rests on one modelling decision: Algorithm 1
must run *per object* (as in the paper's 30 000-CRDT deployment, and as
``repro.sync.keyed_classic`` / ``keyed_bp_rr`` do), not over one
store-wide composed CRDT.  This bench
quantifies why: with a store-wide inflation check, one hot object drags
every cold object's δ-groups back into the buffer, so classic collapses
even at low contention; with per-object checks, classic only pays for
genuinely contended objects.  BP+RR is essentially unaffected — the ∆
extraction is already per-irreducible.
"""

import pytest

from conftest import retwis_config
from repro.experiments.report import format_table
from repro.experiments.retwis_sweep import retwis_workload
from repro.sim.runner import run_suite
from repro.sim.topology import partial_mesh
from repro.sync import classic, delta_bp_rr, keyed_bp_rr, keyed_classic


def run_granularity_ablation(zipf: float = 0.5):
    config = retwis_config()
    return run_suite(
        {
            "classic / whole-store": classic,
            "classic / per-object": keyed_classic,
            "bp+rr / whole-store": delta_bp_rr,
            "bp+rr / per-object": keyed_bp_rr,
        },
        lambda: retwis_workload(config, zipf),
        partial_mesh(config.nodes, config.degree),
    )


@pytest.mark.benchmark(group="ablation-granularity")
def test_granularity_ablation(benchmark, report_sink):
    results = benchmark.pedantic(run_granularity_ablation, rounds=1, iterations=1)
    rows = [
        (label, result.transmission_bytes(), result.converged)
        for label, result in sorted(results.items())
    ]
    report_sink(
        "ablation_granularity",
        format_table(
            ("algorithm / granularity", "bytes transmitted", "converged"),
            rows,
            title="Ablation — Algorithm 1 granularity on Retwis (Zipf 0.5)",
        ),
    )

    # Everything converges regardless of granularity.
    assert all(result.converged for result in results.values())

    # Whole-store classic is dramatically worse than per-object classic
    # even at low contention — the modelling choice the paper's Fig. 11
    # numbers silently depend on.
    assert (
        results["classic / whole-store"].transmission_bytes()
        > 2 * results["classic / per-object"].transmission_bytes()
    )

    # BP+RR barely cares: ∆ extraction is already per-irreducible.
    whole = results["bp+rr / whole-store"].transmission_bytes()
    per_object = results["bp+rr / per-object"].transmission_bytes()
    assert whole < 1.5 * per_object

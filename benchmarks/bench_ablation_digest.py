"""Ablation — pairwise reconciliation strategies after a partition.

Not a paper figure: this bench quantifies the Section VI lineage the
paper builds on (Enes et al., PMLDC 2016), comparing bidirectional
full-state exchange, state-driven, and digest-driven synchronization on
two replicas that diverged during a partition.  Digest-driven should
win whenever states are large and mostly overlapping, because digests
scale with the *number* of irreducibles rather than their size.
"""

import pytest

from repro.crdt import GSet
from repro.experiments.report import format_table
from repro.sync.digest import digest_driven_sync, full_state_sync, state_driven_sync


def diverged_replicas(shared: int, each: int, element_bytes: int = 40):
    a, b = GSet("A"), GSet("B")
    for i in range(shared):
        element = f"shared-{i:06d}".ljust(element_bytes, "x")
        a.add(element)
        b.add(element)
    for i in range(each):
        a.add(f"only-a-{i:06d}".ljust(element_bytes, "x"))
        b.add(f"only-b-{i:06d}".ljust(element_bytes, "x"))
    return a, b


def run_ablation(shared: int = 2000, each: int = 50):
    a, b = diverged_replicas(shared, each)
    outcomes = [
        strategy(a.state, b.state)
        for strategy in (full_state_sync, state_driven_sync, digest_driven_sync)
    ]
    return outcomes


@pytest.mark.benchmark(group="ablation-digest")
def test_digest_sync_ablation(benchmark, report_sink):
    outcomes = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rows = [
        (o.strategy, o.messages, o.bytes_sent, o.converged_state.size_units())
        for o in outcomes
    ]
    report_sink(
        "ablation_digest",
        format_table(
            ("strategy", "messages", "bytes sent", "converged units"),
            rows,
            title="Ablation — pairwise sync of diverged replicas (2000 shared / 50 unique each)",
        ),
    )

    full, state, digest = outcomes
    assert full.converged_state == state.converged_state == digest.converged_state
    # state-driven halves-ish the full exchange; digest-driven beats both.
    assert state.bytes_sent < full.bytes_sent
    assert digest.bytes_sent < state.bytes_sent
    # Message counts per the protocols' definitions.
    assert (full.messages, state.messages, digest.messages) == (2, 2, 3)

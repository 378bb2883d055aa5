#!/usr/bin/env python
"""Reconciling replicas after a network partition with digests.

Two datacenters keep accepting writes to a shared shopping catalogue
(a grow-only map of product → stock counters) while partitioned from
each other.  When the partition heals, three reconciliation strategies
are compared (Section VI of the paper; Enes et al., PMLDC 2016):

* full bidirectional state exchange;
* state-driven: one full state, one optimal delta back;
* digest-driven: fingerprints of join decompositions travel instead of
  states, and only the genuinely missing irreducibles follow.

Run with::

    python examples/partition_recovery.py
"""

from repro import GMap, MaxInt
from repro.sync.digest import digest_driven_sync, full_state_sync, state_driven_sync

PRODUCTS = 800
DIVERGENT_WRITES = 40


def build_diverged_datacenters():
    """A long-shared history plus a burst of writes during a partition."""
    east, west = GMap("dc-east"), GMap("dc-west")

    # Shared history replicated before the partition.
    for product in range(PRODUCTS):
        key = f"product-{product:05d}"
        east.put(key, MaxInt(product % 50 + 1))
        west.merge(east.state)

    # The partition: each side keeps selling (bumping stock counters of
    # different products) without seeing the other.
    for i in range(DIVERGENT_WRITES):
        east.bump(f"product-{i:05d}")
        west.bump(f"product-{PRODUCTS - 1 - i:05d}")
    return east, west


def main() -> None:
    east, west = build_diverged_datacenters()
    print(f"catalogue: {PRODUCTS} products, {DIVERGENT_WRITES} divergent writes per side\n")

    strategies = (full_state_sync, state_driven_sync, digest_driven_sync)
    outcomes = [s(east.state, west.state) for s in strategies]

    for outcome in outcomes:
        print(
            f"{outcome.strategy:14s} {outcome.messages} messages, "
            f"{outcome.bytes_sent:>9,} bytes"
        )

    full, state, digest = outcomes
    assert full.converged_state == state.converged_state == digest.converged_state
    print(
        f"\nall strategies converge to the same state "
        f"({digest.converged_state.size_units()} entries);"
    )
    print(
        f"digest-driven moved {digest.bytes_sent / full.bytes_sent:.1%} of the bytes "
        "of a full exchange."
    )


if __name__ == "__main__":
    main()

"""Fingerprint the sim transport's byte records for refactor safety.

Runs a fixed set of representative experiments on the deterministic
simulator and prints one sha256 per experiment over every message
record and memory sample the metrics collector saw (or, for the store
experiments, over every measured cell).  Identical fingerprints before
and after a refactor prove the round-stepped execution model is
byte-identical — the check PR 3 introduced for the transport seam,
reused for the clock seam and the cluster-driver merge.

:data:`PINNED` holds the values recorded at commit ``1469a3a`` (stable
across ``PYTHONHASHSEED``); ``tests/test_sim_fingerprints.py`` asserts
them in tier-1, and this script exits non-zero on a mismatch.

    PYTHONPATH=src python benchmarks/fingerprint_sim_records.py
"""

from __future__ import annotations

import hashlib
import sys

from repro.causal import Causal
from repro.experiments import (
    KVFaultsConfig,
    KVRebalanceConfig,
    KVSweepConfig,
    run_kv_rebalance,
    run_kv_repair_comparison,
    run_kv_sweep,
)
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import partial_mesh
from repro.sync import ALGORITHMS
from repro.workloads import AWSetChurnWorkload


def _digest_metrics(metrics) -> str:
    hasher = hashlib.sha256()
    for m in metrics.messages:
        hasher.update(
            repr(
                (
                    m.time,
                    m.src,
                    m.dst,
                    m.kind,
                    m.payload_units,
                    m.payload_bytes,
                    m.metadata_bytes,
                    m.metadata_units,
                )
            ).encode()
        )
    for s in metrics.memory:
        hasher.update(
            repr(
                (
                    s.time,
                    s.node,
                    s.state_units,
                    s.state_bytes,
                    s.buffer_bytes,
                    s.metadata_bytes,
                )
            ).encode()
        )
    return hasher.hexdigest()


def micro_fingerprint(algorithm: str) -> str:
    workload = AWSetChurnWorkload(8, rounds=6, seed=3)
    cluster = Cluster(
        ClusterConfig(topology=partial_mesh(8, 4)),
        ALGORITHMS[algorithm],
        Causal.map_bottom(),
    )
    cluster.run_rounds(workload.rounds, workload.updates_for)
    cluster.drain()
    return _digest_metrics(cluster.metrics)


def kv_sweep_fingerprint() -> str:
    result = run_kv_sweep(
        KVSweepConfig(
            replicas=8,
            keys=200,
            rounds=8,
            ops_per_node=4,
            seed=7,
            algorithms=("state-based", "delta-based-bp-rr"),
        )
    )
    hasher = hashlib.sha256()
    for label, cell in result.cells.items():
        hasher.update(repr((label, cell)).encode())
    return hasher.hexdigest()


def kv_repair_fingerprint() -> str:
    result = run_kv_repair_comparison(
        KVFaultsConfig(
            replicas=8,
            keys=200,
            rounds=9,
            ops_per_node=4,
            repair_interval=3,
            repair_fanout=8,
            seed=7,
            strategies=("blanket", "digest", "wal"),
        )
    )
    hasher = hashlib.sha256()
    for label, cell in result.cells.items():
        hasher.update(repr((label, cell)).encode())
    return hasher.hexdigest()


def kv_rebalance_fingerprint() -> str:
    """The membership flow: planner choices show up as handoff bytes."""
    result = run_kv_rebalance(
        KVRebalanceConfig(
            replicas=6,
            keys=200,
            rounds=9,
            ops_per_node=4,
            shards=16,
            repair_interval=3,
            repair_fanout=8,
            seed=7,
        )
    )
    measured = (
        result.phases,
        result.converged,
        result.drain_rounds,
        result.decommissioned_empty,
    )
    return hashlib.sha256(repr(measured).encode()).hexdigest()


FINGERPRINTS = {
    "micro/delta-based-bp-rr": lambda: micro_fingerprint("delta-based-bp-rr"),
    "micro/scuttlebutt": lambda: micro_fingerprint("scuttlebutt"),
    "micro/state-based": lambda: micro_fingerprint("state-based"),
    "kv/sweep": kv_sweep_fingerprint,
    "kv/repair": kv_repair_fingerprint,
    "kv/rebalance": kv_rebalance_fingerprint,
}

#: Recorded at commit 1469a3a, before the cluster drivers were merged.
PINNED = {
    "micro/delta-based-bp-rr": "305fa1a4d4bad6637e96ecac15bd8066fa5301e8e3958e6fbdf1e8bca43e3869",
    "micro/scuttlebutt": "f324ab55b6945056f59f5bd31dbf2cbfd8f213e87787b85c7a881964786110e4",
    "micro/state-based": "05208d41397800f6fb54db60374c05cd4ed879d45c338903b2e8b9b068519d81",
    "kv/sweep": "32111e0f59e584568e6c8e3c34a5d1ec5e14c6b3284233caa7700428b61d56de",
    "kv/repair": "2367e952f8b5afbfa77f1ac4d7c97e3b011965a33b696dd3f03a4873c5be1577",
    "kv/rebalance": "6c9b0453a2ef48a26b2031fc188c1f2dc4de8bd1124f35fe66d71f1bf1bfb38a",
}


def main() -> int:
    drifted = 0
    for name, compute in FINGERPRINTS.items():
        value = compute()
        drifted += value != PINNED[name]
        print(f"{name}: {value}{'' if value == PINNED[name] else '  <-- DRIFTED'}")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())

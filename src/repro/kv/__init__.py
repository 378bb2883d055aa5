"""``repro.kv`` — a sharded, replicated CRDT key-value store.

The paper's synchronizers move one replicated object between replicas;
this package hosts them in a store-shaped deployment — the unit real
systems ship (Almeida et al.'s delta-CRDT stores, ConflictSync's keyed
reconciliation):

* :mod:`repro.kv.types` — typed client operations over a heterogeneous
  keyspace (counters, sets, maps, registers, causal types) with every
  write funnelled through an optimal δ-mutator;
* :mod:`repro.kv.ring` — consistent-hash placement of shards onto
  replica groups with a configurable replication factor;
* :mod:`repro.kv.shard` — one hosted copy of a shard (inner
  synchronizer + digest + log handle), whose ``write`` / ``deliver`` /
  ``absorb`` are the only code that can inflate it, each staging the
  inflation to the WAL;
* :mod:`repro.kv.antientropy` — per-shard synchronization scheduling:
  round-robin fairness and a per-tick send budget with delta-batching
  backpressure;
* :mod:`repro.kv.repair` — the repair exchange, whole: blanket
  full-state pushes on a timer, or divergence-driven digest probes over
  cold δ-paths that escalate to shipping only the missing join
  decomposition (``kv-digest`` / ``kv-diff`` / ``kv-repair``);
* :mod:`repro.kv.handoff` — the rebalance handoff exchange, whole: the
  offer → segment → ack state machine, retained source shards and
  log fencing (``kv-handoff-*``);
* :mod:`repro.kv.store` — the per-replica engine, itself a
  :class:`~repro.sync.protocol.Synchronizer`, running any inner
  protocol per shard: routing, the typed API, wire packaging and
  ``apply_ring``;
* :mod:`repro.kv.driver` — the cluster driver every backend shares:
  smart-client routing, per-shard convergence, partition/crash
  recovery under a pluggable recovery policy (bottom restart + remote
  repair, or local :mod:`repro.wal` replay with repair covering only
  the remainder), and **live membership changes**:
  ``add_replica``/``decommission_replica`` swap the ring mid-run and
  ship every moved shard as a compacted WAL segment through the
  ``kv-handoff-*`` protocol, fencing the old owner's log on completion;
* :mod:`repro.kv.cluster` — that driver's in-process backend (replica
  runtimes on the simulator or localhost TCP); the multi-process
  backend is :class:`repro.serve.ProcessCluster`.
"""

from repro.kv.antientropy import REPAIR_MODES, AntiEntropyConfig, AntiEntropyScheduler
from repro.kv.cluster import KVCluster
from repro.kv.driver import (
    KV_ALGORITHMS,
    RECOVERY_POLICIES,
    KVDriver,
    RebalanceReport,
    Unavailable,
    plan_rebalance,
)
from repro.kv.ring import HashRing, stable_hash
from repro.kv.shard import Shard
from repro.kv.store import (
    KVRoutingError,
    KVStore,
    KVUpdate,
    kv_store_factory,
)
from repro.kv.types import (
    PREFIXES,
    KVTypeError,
    TypeSpec,
    spec_for,
)

__all__ = [
    "AntiEntropyConfig",
    "AntiEntropyScheduler",
    "HashRing",
    "RebalanceReport",
    "KVCluster",
    "KVDriver",
    "KV_ALGORITHMS",
    "KVRoutingError",
    "KVStore",
    "KVTypeError",
    "KVUpdate",
    "PREFIXES",
    "RECOVERY_POLICIES",
    "REPAIR_MODES",
    "Shard",
    "TypeSpec",
    "Unavailable",
    "kv_store_factory",
    "plan_rebalance",
    "spec_for",
    "stable_hash",
]

"""repro — Efficient Synchronization of State-based CRDTs.

A complete, self-contained reproduction of Enes, Almeida, Baquero &
Leitão, *Efficient Synchronization of State-based CRDTs* (ICDE 2019):

* :mod:`repro.lattice` — join-semilattices, composition constructs,
  irredundant join decompositions ``⇓x``, and optimal deltas ``∆(a, b)``;
* :mod:`repro.crdt` — GCounter, GSet, GMap, PNCounter, LWWRegister,
  2P-Set, and BCounter built on the lattice substrate;
* :mod:`repro.causal` — the observed-remove family (AWSet, RWSet,
  EWFlag, DWFlag, multi-value registers, resettable counters, OR-maps)
  over dot stores and causal contexts, with the same optimal deltas;
* :mod:`repro.sync` — state-based, delta-based (classic / BP / RR /
  BP+RR), Scuttlebutt (± GC), operation-based, and digest-driven
  synchronization behind one interface;
* :mod:`repro.net` — the transport seam: one replica runtime per
  synchronizer over a :class:`Transport` interface, implemented by the
  deterministic simulator and by real asyncio localhost-TCP sockets;
* :mod:`repro.sim` — a deterministic discrete-event cluster simulator
  with transmission / memory / processing metrology and crash /
  partition fault injection;
* :mod:`repro.kv` — a sharded, replicated key-value store hosting the
  synchronizers: consistent-hash placement, typed heterogeneous
  keyspace, budgeted per-shard anti-entropy, partition recovery;
* :mod:`repro.workloads` — the Table I micro-benchmarks and the
  Table II Retwis application under Zipf contention;
* :mod:`repro.experiments` — drivers that regenerate every figure and
  table of the paper's evaluation.

Quickstart::

    from repro import GSet, delta

    a, b = GSet("A"), GSet("B")
    a.add("x"); b.add("y")
    d = delta(b.state, a.state)   # optimal delta: what a is missing
    a.merge(d)
"""

from repro.lattice import (
    Bool,
    Chain,
    LexPair,
    LinearSum,
    MapLattice,
    MaxElements,
    MaxInt,
    PairLattice,
    SetLattice,
    decomposition,
    delta,
    join_all,
)
from repro.crdt import (
    BCounter,
    Crdt,
    GCounter,
    GMap,
    GSet,
    LWWRegister,
    PNCounter,
    TwoPSet,
    optimal_delta_mutator,
)
from repro.causal import (
    AWSet,
    Causal,
    CausalContext,
    CausalMVRegister,
    CCounter,
    Dot,
    DWFlag,
    EWFlag,
    ORMap,
    RWSet,
)
from repro.sync import (
    ALGORITHMS,
    DeltaBased,
    OpBased,
    Scuttlebutt,
    ScuttlebuttGC,
    StateBased,
    classic,
    delta_bp,
    delta_bp_rr,
    delta_rr,
    digest_driven_sync,
    state_driven_sync,
)
from repro.codec import decode, decode_message, encode, encode_message
from repro.net import AsyncTcpTransport, ReplicaRuntime, SimTransport, Transport
from repro.sim import Cluster, ClusterConfig, SizeModel, partial_mesh, tree, run_experiment

__version__ = "1.0.0"

__all__ = [
    # lattice
    "Bool",
    "Chain",
    "LexPair",
    "LinearSum",
    "MapLattice",
    "MaxElements",
    "MaxInt",
    "PairLattice",
    "SetLattice",
    "decomposition",
    "delta",
    "join_all",
    # crdt
    "BCounter",
    "Crdt",
    "GCounter",
    "GMap",
    "GSet",
    "LWWRegister",
    "PNCounter",
    "TwoPSet",
    "optimal_delta_mutator",
    # causal
    "AWSet",
    "Causal",
    "CausalContext",
    "CausalMVRegister",
    "CCounter",
    "Dot",
    "DWFlag",
    "EWFlag",
    "ORMap",
    "RWSet",
    # sync
    "ALGORITHMS",
    "DeltaBased",
    "OpBased",
    "Scuttlebutt",
    "ScuttlebuttGC",
    "StateBased",
    "classic",
    "delta_bp",
    "delta_bp_rr",
    "delta_rr",
    "digest_driven_sync",
    "state_driven_sync",
    # codec
    "decode",
    "encode",
    "decode_message",
    "encode_message",
    # net
    "AsyncTcpTransport",
    "ReplicaRuntime",
    "SimTransport",
    "Transport",
    # sim
    "Cluster",
    "ClusterConfig",
    "SizeModel",
    "partial_mesh",
    "tree",
    "run_experiment",
    "__version__",
]

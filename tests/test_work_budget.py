"""Work budgets: exact operation counts for one paper cell.

Seconds drift with the host; the work a deterministic run does does
not.  Each budget here replays one cell of the paper in the simulator
with counting wrappers around the operations that cost, and pins the
counts exactly, so a change that makes the same run do more (or less)
work fails by name, and a claimed speedup has a count beside it.

Table I's GMap 10 % on the 15-node partial mesh of Figure 6, under
BP+RR, the paper's best configuration (twenty rounds, then the drain):

* ``MaxInt.delta`` — RR's Δ recursing into a binding.  A binding the
  replica already holds as the very same object is skipped
  (``lattice/map_lattice.py``, *Aliased bindings*).
* ``MaxInt.size_units`` + ``MaxInt.size_bytes`` — the per-value size
  reads behind message sizes and memory samples.  Rebinding a counter
  owes no size (``fixed_size``, *Size lineage*).
* ``sizes.sizeof`` — per-atom byte sizing.

The transmitted bytes and the drain are pinned beside them: they are
the paper's metric and must not move when the work does.

A 4-replica keyed store under BP+RR with digest repair and
``recovery="wal"``, through one partition and heal:

* ``encode`` as the WAL calls it — once per committed record, at the
  tick's group commit, and never inside ``KVStore.local_update``: a
  write stages its δ and the codec stays off the write path
  (``wal/log.py``, *stage/commit*).
* ``TypeSpec.apply`` — one call per typed write — and ``Crdt.__init__``
  over the whole run: a write calls its type's declared δ-mutator on
  the key's value directly, so no CRDT object is ever built.

The committed records and bytes and the drain are pinned beside them.
"""

import sys
from collections import Counter

import pytest

from repro import sizes
from repro.crdt import Crdt
from repro.kv import AntiEntropyConfig, HashRing, KVCluster, KVStore, TypeSpec
from repro.lattice import MaxInt
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import partial_mesh
from repro.sync import delta_bp_rr, keyed_bp_rr
from repro.wal import log as wal_log
from repro.workloads.kv import KVZipfWorkload
from repro.workloads.micro import GMapWorkload

COUNTED = ("delta", "size_units", "size_bytes")


@pytest.fixture
def counts(monkeypatch):
    """Count calls of ``COUNTED`` on ``MaxInt`` and of ``sizes.sizeof``;
    put the originals back."""
    tally = Counter()
    sizeof = sizes.sizeof

    def counting_sizeof(value):
        tally["sizeof"] += 1
        return sizeof(value)

    monkeypatch.setattr(sizes, "sizeof", counting_sizeof)
    originals = {name: vars(MaxInt)[name] for name in COUNTED}

    def counting(name, method):
        def wrapper(*args):
            tally[name] += 1
            return method(*args)

        return wrapper

    for name, method in originals.items():
        setattr(MaxInt, name, counting(name, method))
    try:
        yield tally
    finally:
        for name, method in originals.items():
            setattr(MaxInt, name, method)
        assert all(vars(MaxInt)[name] is method for name, method in originals.items())


def test_gmap_10_under_bp_rr(counts):
    workload = GMapWorkload(15, 10, 20)
    config = ClusterConfig(topology=partial_mesh(15, 4))
    cluster = Cluster(config, delta_bp_rr, workload.bottom())
    cluster.run_rounds(workload.rounds, workload.updates_for)
    drain = cluster.drain()
    assert cluster.converged()
    assert (drain, cluster.metrics.total_bytes()) == (3, 1_473_440)
    assert {
        "MaxInt.delta": counts["delta"],
        "MaxInt size reads": counts["size_units"] + counts["size_bytes"],
        "sizeof": counts["sizeof"],
    } == {
        "MaxInt.delta": 14_000,
        "MaxInt size reads": 89_200,
        "sizeof": 45_908,
    }


@pytest.fixture
def wal_encodes():
    """Count the WAL's ``encode`` calls, and those made inside a write;
    put the original back."""
    tally = Counter()
    original = wal_log.encode
    write_path = KVStore.local_update.__code__

    def counting(value):
        tally["encode"] += 1
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is write_path:
                tally["inside local_update"] += 1
                break
            frame = frame.f_back
        return original(value)

    wal_log.encode = counting
    try:
        yield tally
    finally:
        wal_log.encode = original
        assert wal_log.encode is original


@pytest.fixture
def write_dispatch():
    """Count ``TypeSpec.apply`` calls and ``Crdt`` constructions; put the
    originals back."""
    tally = Counter()
    apply, init = TypeSpec.apply, Crdt.__init__

    def counting_apply(self, *args):
        tally["TypeSpec.apply"] += 1
        return apply(self, *args)

    def counting_init(self, *args, **kwargs):
        tally["Crdt.__init__"] += 1
        init(self, *args, **kwargs)

    TypeSpec.apply, Crdt.__init__ = counting_apply, counting_init
    try:
        yield tally
    finally:
        TypeSpec.apply, Crdt.__init__ = apply, init
        assert TypeSpec.apply is apply and Crdt.__init__ is init


def test_keyed_store_through_partition_and_heal(wal_encodes, write_dispatch):
    ring = HashRing(range(4), n_shards=8, replication=3)
    cluster = KVCluster(
        ring,
        keyed_bp_rr,
        antientropy=AntiEntropyConfig(
            repair_interval=2, repair_fanout=8, repair_mode="digest"
        ),
        recovery="wal",
    )
    workload = KVZipfWorkload(ring, 6, 4, keys=64, seed=5)

    def run(rounds):
        for r in rounds:
            cluster.run_round(lambda node, r=r: workload.updates_for(r, node))

    run(range(0, 2))
    cluster.partition([0, 1])
    run(range(2, 4))
    cluster.heal()
    run(range(4, 6))
    drain = cluster.drain()
    assert cluster.converged()
    wal = cluster.wal_stats()
    assert (drain, wal["wal_records"], wal["wal_committed_bytes"]) == (3, 208, 6_427)
    assert (wal_encodes["encode"], wal_encodes["inside local_update"]) == (208, 0)
    assert (write_dispatch["TypeSpec.apply"], write_dispatch["Crdt.__init__"]) == (96, 0)

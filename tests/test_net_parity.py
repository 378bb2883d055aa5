"""Sim ↔ TCP parity: same replicas, same rounds, two transports.

The seeded kv workload replays identically on the deterministic
simulator and on real localhost TCP sockets, because both transports
drive the same :class:`~repro.net.runtime.ReplicaRuntime` round
structure: updates land first, every live timer fires before any
delivery, and the round settles (all messages plus replies processed)
before the next begins.  With replication factor 2 each shard's replica
group is a single δ-path, so message *content* is identical down to the
δ-group level and the parity claims can be exact where the accounting
is transport-independent:

* converged keyspaces are **identical**;
* message counts and payload *units* (the paper's entry metric, which
  travels verbatim in the wire envelope) are **equal**;
* payload/total *bytes* differ only by the documented envelope-framing
  tolerance: the sim records size-model estimates (fixed 8 B integers,
  20 B identifiers), TCP records measured wire bytes (varint/UTF-8
  atoms plus the envelope header and 4 B length prefix per frame).
  Varints usually undershoot the model and framing overshoots it, so
  the ratio is asserted inside the documented band below.
"""

from dataclasses import replace

import pytest

from repro.driver import Stepped
from repro.kv.antientropy import AntiEntropyConfig
from repro.kv.cluster import KVCluster
from repro.kv.ring import HashRing
from repro.sim.network import ClusterConfig
from repro.sim.topology import full_mesh
from repro.sync import StateBased, keyed_bp_rr
from repro.workloads.kv import KVZipfWorkload

#: The documented envelope-framing tolerance: measured wire bytes stay
#: within this factor of the size model's estimate in either direction.
FRAMING_TOLERANCE = (0.4, 1.6)

INNER = {"state-based": StateBased, "delta-based-bp-rr": keyed_bp_rr}


def run_kv(transport, inner, *, repair_mode=None, rounds=5):
    ring = HashRing(range(4), n_shards=8, replication=2)
    workload = KVZipfWorkload(ring, rounds, 3, keys=48, zipf_coefficient=1.0, seed=11)
    antientropy = (
        AntiEntropyConfig(repair_interval=2, repair_fanout=8, repair_mode=repair_mode)
        if repair_mode
        else None
    )
    cluster = KVCluster(ring, INNER[inner], antientropy=antientropy, transport=transport)
    try:
        cluster.run_rounds(workload.rounds, workload.updates_for)
        drain_rounds = cluster.drain()
        return {
            "converged": cluster.converged(),
            "drain": drain_rounds,
            "keyspace": cluster.merged_keyspace(),
            "messages": cluster.metrics.message_count,
            "payload_units": cluster.metrics.totals()["payload_units"],
            "payload_bytes": cluster.metrics.total_payload_bytes(),
            "total_bytes": cluster.metrics.total_bytes(),
            "probes": cluster.scheduler_stats()["probes"],
        }
    finally:
        cluster.close()


@pytest.mark.parametrize("inner", sorted(INNER))
def test_seeded_sweep_parity(inner):
    sim = run_kv("sim", inner)
    tcp = run_kv("tcp", inner)

    assert sim["converged"] and tcp["converged"]
    assert tcp["keyspace"] == sim["keyspace"], "transports converged differently"

    # Content parity is exact: same messages, same entry-metric totals.
    assert tcp["messages"] == sim["messages"]
    assert tcp["payload_units"] == sim["payload_units"]
    assert tcp["drain"] == sim["drain"]

    # Byte parity holds within the documented framing tolerance.
    low, high = FRAMING_TOLERANCE
    assert sim["payload_bytes"] > 0
    payload_ratio = tcp["payload_bytes"] / sim["payload_bytes"]
    total_ratio = tcp["total_bytes"] / sim["total_bytes"]
    assert low < payload_ratio < high, f"payload ratio {payload_ratio:.2f}"
    assert low < total_ratio < high, f"total ratio {total_ratio:.2f}"


def test_digest_repair_probes_fire_on_both_transports():
    """Divergence-driven repair schedules identically: the scheduler
    only sees the runtime's tick clock, never the transport."""
    sim = run_kv("sim", "delta-based-bp-rr", repair_mode="digest", rounds=7)
    tcp = run_kv("tcp", "delta-based-bp-rr", repair_mode="digest", rounds=7)
    assert sim["converged"] and tcp["converged"]
    assert tcp["keyspace"] == sim["keyspace"]
    assert tcp["probes"] == sim["probes"]


def run_kv_lossy(transport, *, rounds=6, loss_rate=0.2, loss_seed=5):
    """A seeded lossy replay; state-based tolerates arbitrary loss."""
    ring = HashRing(range(4), n_shards=8, replication=2)
    workload = KVZipfWorkload(ring, rounds, 3, keys=48, zipf_coefficient=1.0, seed=11)
    config = ClusterConfig(
        topology=full_mesh(4), loss_rate=loss_rate, loss_seed=loss_seed
    )
    cluster = KVCluster(ring, StateBased, config=config, transport=transport)
    try:
        cluster.run_rounds(workload.rounds, workload.updates_for)
        drain = cluster.drain()
        return {
            "dropped": cluster.messages_dropped,
            "messages": cluster.metrics.message_count,
            "drain": drain,
            "keyspace": cluster.merged_keyspace(),
        }
    finally:
        cluster.close()


class TestLossScheduleIsTrafficPure:
    """The loss flips are a pure function of (seed, src, dst, edge-seq).

    The old shared stream assigned flips in consumption order — on TCP
    that was event-loop callback order, so repeated runs (and sim-vs-
    TCP comparisons) dropped different frames.  Per-edge streams make
    the drop schedule a property of the traffic itself.
    """

    def test_repeated_tcp_runs_drop_identical_frames(self):
        first = run_kv_lossy("tcp")
        second = run_kv_lossy("tcp")
        assert first["dropped"] == second["dropped"] > 0
        assert first["messages"] == second["messages"]
        assert first["drain"] == second["drain"]
        assert first["keyspace"] == second["keyspace"]

    def test_sim_and_tcp_drop_identical_frames(self):
        sim = run_kv_lossy("sim")
        tcp = run_kv_lossy("tcp")
        assert tcp["dropped"] == sim["dropped"] > 0
        assert tcp["messages"] == sim["messages"]
        assert tcp["drain"] == sim["drain"]
        assert tcp["keyspace"] == sim["keyspace"]

    def test_the_loss_seed_still_selects_the_schedule(self):
        assert (
            run_kv_lossy("tcp", loss_seed=5)["dropped"]
            != run_kv_lossy("tcp", loss_seed=6)["dropped"]
        )


@pytest.mark.parametrize("mode", ["digest", "wal"])
def test_tcp_survives_the_fault_schedule(mode):
    """Partition + heal + crash(lose_state) + recover over real sockets,
    counted as the simulator counts the same schedule."""
    from repro.experiments.kv_sweep import KVConfig, run_kv_repair_cell

    config = KVConfig(
        replicas=6,
        keys=48,
        rounds=6,
        ops_per_node=3,
        shards=12,
        replication=2,
        repair_interval=2,
        repair_fanout=8,
    )
    sim = run_kv_repair_cell(config, "delta-based-bp-rr", mode)
    tcp = run_kv_repair_cell(
        replace(config, deployment=Stepped.TCP), "delta-based-bp-rr", mode
    )
    assert tcp.converged and sim.converged
    assert tcp.probes > 0
    assert tcp.repair_payload_bytes > 0
    assert (tcp.wal_replayed_bytes > 0) == (mode == "wal")
    for field in ("drain_rounds", "repairs", "probes", "wal_replayed_bytes"):
        assert getattr(tcp, field) == getattr(sim, field), field

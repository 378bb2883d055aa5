#!/usr/bin/env python
"""Tour of the sharded CRDT key-value store (``repro.kv``).

A six-replica store, replication factor three, running delta-based
BP+RR anti-entropy per shard.  The demo walks through:

1. typed writes on a mixed keyspace — counters, sets, registers,
   an add-wins shopping cart — routed to shard owners by the ring;
2. convergence of every replica group after a few sync rounds;
3. a network partition with writes on both sides, healed by
   divergence-driven repair: digest probes over cold δ-paths that ship
   only the missing join decomposition;
4. a replica crash that loses its disk, restored the same way;
5. the bandwidth story: the identical workload under full-state push
   versus delta-based BP+RR, and the identical fault schedule under
   blanket full-state repair versus digest-escalated repair.

Run with::

    python examples/kv_store_demo.py
"""

from repro.experiments import (
    KVFaultsConfig,
    KVSweepConfig,
    run_kv_repair_comparison,
    run_kv_sweep,
)
from repro.kv import AntiEntropyConfig, HashRing, KVCluster
from repro.sync import keyed_bp_rr


def main() -> None:
    ring = HashRing(range(6), n_shards=16, replication=3)
    cluster = KVCluster(
        ring,
        keyed_bp_rr,
        antientropy=AntiEntropyConfig(
            repair_interval=3, repair_fanout=8, repair_mode="digest"
        ),
    )

    print("ring placement (first shards):")
    for shard in range(4):
        print(f"  shard {shard:2d} -> replicas {ring.shard_owners(shard)}")

    # --- 1. Typed writes through the smart-client routing. ------------
    cluster.update("cnt:balance", "increment", 100)
    cluster.update("cnt:balance", "decrement", 37)
    cluster.update("set:tags", "add", "crdt")
    cluster.update("set:tags", "add", "delta")
    cluster.update("reg:motd", "write", "all systems nominal", 1)
    cluster.update("aws:cart", "add", "milk")
    cluster.update("aws:cart", "add", "bread")

    # --- 2. A few synchronization rounds converge every group. --------
    cluster.run_round(updates=None)
    cluster.drain()
    print("\nafter sync:")
    print(f"  cnt:balance = {cluster.value('cnt:balance')}")
    print(f"  set:tags    = {sorted(cluster.value('set:tags'))}")
    print(f"  reg:motd    = {cluster.value('reg:motd')!r}")
    print(f"  aws:cart    = {sorted(cluster.value('aws:cart'))}")
    print(f"  converged   = {cluster.converged()}")

    # --- 3. Partition: both sides keep writing. -----------------------
    cluster.partition([0, 1, 2])
    cluster.update("set:tags", "add", "west-side")  # lands on a live owner
    for _ in range(2):
        cluster.run_round(updates=None)
    print(f"\npartitioned: converged = {cluster.converged()}")
    cluster.heal()
    cluster.drain()
    print(f"healed:      converged = {cluster.converged()}, "
          f"set:tags = {sorted(cluster.value('set:tags'))}")

    # --- 4. Crash with disk loss; repair restores the replica. --------
    cluster.crash(2, lose_state=True)
    cluster.update("aws:cart", "remove", "milk")
    for _ in range(2):
        cluster.run_round(updates=None)
    cluster.recover(2)
    cluster.drain()
    print(f"\nafter crash+recover: converged = {cluster.converged()}, "
          f"aws:cart = {sorted(cluster.value('aws:cart'))}")

    # --- 5. Bytes on the wire: state-based vs delta BP+RR. ------------
    sweep = run_kv_sweep(
        KVSweepConfig(replicas=6, keys=200, rounds=8, ops_per_node=4, shards=16,
                      algorithms=("state-based", "delta-based-bp-rr"))
    )
    state = sweep.total_bytes("state-based")
    delta = sweep.total_bytes("delta-based-bp-rr")
    print(f"\nsame workload, 6 replicas, 200 keys:")
    print(f"  state-based       {state:>9,} bytes on the wire")
    print(f"  delta-based BP+RR {delta:>9,} bytes on the wire "
          f"({delta / state:.1%} of full-state push)")

    # --- 6. Repair bytes: blanket push vs divergence-driven digests. --
    faults = run_kv_repair_comparison(
        KVFaultsConfig(replicas=6, keys=200, rounds=9, ops_per_node=4, shards=16,
                       repair_interval=3, repair_fanout=8,
                       strategies=("blanket", "digest"))
    )
    blanket = faults.cell("blanket")
    digest = faults.cell("digest")
    print(f"\nsame faults (partition + heal + crash with disk loss):")
    print(f"  blanket repair    {blanket.repair_bytes:>9,} repair bytes")
    print(f"  digest repair     {digest.repair_bytes:>9,} repair bytes "
          f"({digest.repair_bytes / blanket.repair_bytes:.1%}, "
          f"{digest.probes} probes)")


if __name__ == "__main__":
    main()

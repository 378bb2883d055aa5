"""The hot path at 100k+ keys: encode-once and incremental digests.

Three cells, each gating one of the caches that keep the store's
per-tick work proportional to *what changed* instead of *what exists*:

* ``test_incremental_root_beats_recompute`` — the repair plane's probe
  primitive on a 100 000-key keyspace: refreshing an
  :class:`~repro.sync.digest.IncrementalDigest` after a small write
  burst versus recomputing ``root_of(digest_of(state))`` from the full
  join decomposition.  The cache re-fingerprints only the touched keys
  (found by the identity scan), so the ratio grows with keyspace size.

* ``test_frame_memo_encodes_once`` — the codec boundary: one sync
  tick's fan-out of an identical δ-bundle to 8 neighbours.  The
  synchronizers share one frozen message across those destinations and
  :func:`repro.codec.frame_message` memoizes the wire frame on it, so
  the bundle is encoded once, not once per neighbour.

* ``test_store_hotpath_profile`` — the caches in situ: a full
  :class:`~repro.kv.cluster.KVCluster` populated to 100k+ keys, driven
  with digest-mode anti-entropy and profiled with the PR 6
  :class:`~repro.obs.timing.HotPathTimers`; the in-place probe
  comparison measures cached versus recomputed shard roots on the live
  shard states.

Every cell asserts a minimum speedup ratio — a machine-independent
regression gate that fails if either cache stops working — and the
combined report (ops/sec, ratios, timer breakdown) lands in
``benchmarks/results/hotpath.txt``.  Absolute times are not gated
here: ``BENCHMARK.json``'s bounded workloads compare a change with its
parent on the same machine.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from conftest import SCALE
from repro.codec import frame_message
from repro.lattice.map_lattice import MapLattice
from repro.lattice.primitives import MaxInt
from repro.sync.digest import IncrementalDigest, digest_of, root_of
from repro.sync.protocol import Message

#: Keyspace size of the digest micro-cell (the headline scale).
KEYS = {"quick": 100_000, "paper": 250_000}[SCALE]
#: Keys touched between consecutive probes (one write burst).
TOUCH = 64
#: Fan-out of the encode cell (neighbours per sync tick).
NEIGHBORS = 8
#: Store-cell shape: keys written during population.
STORE_KEYS = {"quick": 100_000, "paper": 200_000}[SCALE]
STORE_SHARDS = 512
STORE_ROUNDS = {"quick": 5, "paper": 12}[SCALE]

#: Minimum speedups the caches must deliver (regression gates).
MIN_ROOT_SPEEDUP = 3.0
MIN_ENCODE_SPEEDUP = 3.0
MIN_STORE_PROBE_SPEEDUP = 3.0

#: Section texts accumulated across cells; the store cell (last in file
#: order) writes the combined artifact.
_SECTIONS: dict = {}


def _bulk_state(n: int) -> MapLattice:
    return MapLattice({f"k{i}": MaxInt(i % 997) for i in range(n)})


@pytest.mark.benchmark(group="hotpath")
def test_incremental_root_beats_recompute(benchmark):
    state = _bulk_state(KEYS)
    cache = IncrementalDigest()
    cache.root(state)  # warm: fingerprint every key once

    counter = [0]
    current = [state]

    def mutate() -> MapLattice:
        burst = counter[0]
        counter[0] += 1
        delta = MapLattice(
            {
                f"k{(burst * TOUCH + j) % KEYS}": MaxInt(100_000 + burst)
                for j in range(TOUCH)
            }
        )
        current[0] = current[0].join(delta)
        return current[0]

    def setup():
        return (mutate(),), {}

    benchmark.pedantic(cache.root, setup=setup, rounds=10, iterations=1)
    cached_s = benchmark.stats.stats.median

    # The pre-cache path: full decomposition, fingerprint every key,
    # sort and hash — measured on the exact same state.
    final = current[0]
    started = perf_counter()
    expected = root_of(digest_of(final))
    full_s = perf_counter() - started

    assert cache.root(final) == expected  # equality-to-recompute
    speedup = full_s / cached_s
    _SECTIONS["root"] = (
        f"incremental root @ {KEYS} keys, {TOUCH}-key bursts:\n"
        f"  cached refresh   {cached_s * 1e3:9.2f} ms/probe "
        f"({1 / cached_s:,.0f} probes/s)\n"
        f"  full recompute   {full_s * 1e3:9.2f} ms/probe "
        f"({1 / full_s:,.0f} probes/s)\n"
        f"  speedup          {speedup:9.1f}x"
    )
    assert speedup >= MIN_ROOT_SPEEDUP, (
        f"incremental root refresh only {speedup:.1f}x faster than full "
        f"recompute (gate: {MIN_ROOT_SPEEDUP}x)"
    )


@pytest.mark.benchmark(group="hotpath")
def test_frame_memo_encodes_once(benchmark):
    bundle = MapLattice({f"obj{i}": MaxInt(i) for i in range(5_000)})

    def message() -> Message:
        return Message(
            kind="keyed-delta",
            payload=bundle,
            payload_units=len(bundle),
            payload_bytes=0,
            metadata_bytes=4,
            metadata_units=1,
        )

    def fan_out_shared():
        shared = message()  # fresh object: first encode is real work
        return [frame_message(shared) for _ in range(NEIGHBORS)]

    def fan_out_fresh():
        return [frame_message(message()) for _ in range(NEIGHBORS)]

    # Identical bytes either way — the memo must not change the wire.
    assert {f.data for f in fan_out_shared()} == {f.data for f in fan_out_fresh()}

    benchmark.pedantic(fan_out_shared, rounds=10, iterations=1)
    shared_s = benchmark.stats.stats.median
    started = perf_counter()
    fan_out_fresh()
    fresh_s = perf_counter() - started

    speedup = fresh_s / shared_s
    _SECTIONS["encode"] = (
        f"encode-once fan-out, {len(bundle)}-key bundle x {NEIGHBORS} "
        f"neighbours:\n"
        f"  shared message   {shared_s * 1e3:9.2f} ms/tick "
        f"({NEIGHBORS / shared_s:,.0f} sends/s)\n"
        f"  fresh messages   {fresh_s * 1e3:9.2f} ms/tick "
        f"({NEIGHBORS / fresh_s:,.0f} sends/s)\n"
        f"  speedup          {speedup:9.1f}x"
    )
    assert speedup >= MIN_ENCODE_SPEEDUP, (
        f"shared-message fan-out only {speedup:.1f}x faster than per-"
        f"neighbour encodes (gate: {MIN_ENCODE_SPEEDUP}x)"
    )


@pytest.mark.benchmark(group="hotpath")
def test_store_hotpath_profile(benchmark, report_sink):
    from repro.kv.antientropy import AntiEntropyConfig
    from repro.kv.cluster import KVCluster
    from repro.kv.ring import HashRing
    from repro.sync import keyed_bp_rr
    from repro.workloads.kv import KVZipfWorkload

    ring = HashRing(range(8), n_shards=STORE_SHARDS, replication=3)
    cluster = KVCluster(
        ring,
        keyed_bp_rr,
        antientropy=AntiEntropyConfig(
            repair_interval=2, repair_fanout=STORE_SHARDS, repair_mode="digest"
        ),
        timing=True,
    )
    try:
        # Populate: one write per key, routed like a smart client.
        started = perf_counter()
        for i in range(STORE_KEYS):
            cluster.update(f"set:k{i}", "add", i)
        populate_s = perf_counter() - started

        ops_per_node = 8
        workload = KVZipfWorkload(
            ring,
            STORE_ROUNDS,
            ops_per_node,
            keys=STORE_KEYS,
            zipf_coefficient=1.0,
            seed=7,
        )
        total_ops = STORE_ROUNDS * len(ring.replicas) * ops_per_node

        def measure():
            cluster.run_rounds(STORE_ROUNDS, workload.updates_for)

        benchmark.pedantic(measure, rounds=1, iterations=1)
        rounds_s = benchmark.stats.stats.median
        ops_per_s = total_ops / rounds_s

        # Probe primitive on the live 100k-key store: cached shard
        # roots versus full recomputation over the same shard states.
        store = cluster.nodes[0]
        shards = sorted(store.shards)
        for shard in shards:  # warm
            store.shard_root(shard)
        started = perf_counter()
        for _ in range(5):
            for shard in shards:
                store.shard_root(shard)
        cached_s = (perf_counter() - started) / (5 * len(shards))
        started = perf_counter()
        for shard in shards:
            inner = store.shards[shard]
            assert root_of(digest_of(inner.state)) == store.shard_root(shard)
        full_s = (perf_counter() - started) / len(shards)
        speedup = full_s / cached_s

        timers = cluster.timers.snapshot()
        timer_lines = "\n".join(
            f"  {name:<24} {stats['calls']:>8} calls  "
            f"{stats['seconds'] * 1e3:>10.1f} ms  {int(stats['units']):>10} units"
            for name, stats in timers.items()
        )
        _SECTIONS["store"] = (
            f"kv store cell @ {STORE_KEYS} keys, {STORE_SHARDS} shards x rf 3, "
            f"8 replicas, digest repair:\n"
            f"  populate         {populate_s:9.2f} s "
            f"({STORE_KEYS / populate_s:,.0f} writes/s)\n"
            f"  measured rounds  {rounds_s:9.2f} s for {STORE_ROUNDS} rounds "
            f"({ops_per_s:,.0f} ops/s)\n"
            f"  cached probe     {cached_s * 1e6:9.1f} us/shard\n"
            f"  full recompute   {full_s * 1e6:9.1f} us/shard\n"
            f"  probe speedup    {speedup:9.1f}x\n"
            f"hot-path timers (replica 0..7 aggregate):\n{timer_lines}"
        )
        report = "hot-path benchmark — encode-once + incremental digests\n\n"
        report += "\n\n".join(
            _SECTIONS[name] for name in ("root", "encode", "store") if name in _SECTIONS
        )
        report_sink("hotpath", report)

        assert cluster.converged() or cluster.drain() >= 0
        assert speedup >= MIN_STORE_PROBE_SPEEDUP, (
            f"cached shard probes only {speedup:.1f}x faster than full "
            f"recompute on the live store (gate: {MIN_STORE_PROBE_SPEEDUP}x)"
        )
    finally:
        cluster.close()

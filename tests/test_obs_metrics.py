"""The metrics registry, series helpers, and the lag probe."""

import pytest

from repro.obs.lag import ConvergenceProbe
from repro.obs.metrics import Counter, MetricsRegistry
from repro.sim.series import bucket_series, cumulative, partition_at


class TestRegistry:
    def test_counters_are_found_again_by_name(self):
        registry = MetricsRegistry()
        counter = registry.counter("scheduler.ticks")
        counter.inc()
        assert registry.counter("scheduler.ticks") is counter
        assert registry.counter("scheduler.ticks").value == 1

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_snapshot_is_sorted_and_flat(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc()
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "b"]
        assert snapshot == {"a": 1, "b": 2}


class TestSchedulerAdapter:
    """scheduler.stats() is the replica's ``scheduler.*`` registry namespace."""

    def make_store(self, registry=None, wal=None):
        from repro.kv import AntiEntropyConfig, HashRing, KVStore
        from repro.lattice import MapLattice
        from repro.sync import keyed_bp_rr

        return KVStore(
            replica=0,
            neighbors=(1,),
            bottom=MapLattice(),
            n_nodes=2,
            ring=HashRing(range(2), n_shards=2, replication=2),
            inner_factory=keyed_bp_rr,
            antientropy=AntiEntropyConfig(repair_interval=2, repair_mode="digest"),
            registry=registry,
            wal=wal,
        )

    @staticmethod
    def probe(store, metadata_bytes):
        from repro.sync.protocol import Message

        probe = Message("kv-digest", store.shard_root(0), 0, 0, metadata_bytes)
        store.handle_message(1, Message("kv-batch", ((0, probe),), 0, 0, 0))

    def test_stats_reads_registry_counters(self):
        registry = MetricsRegistry()
        store = self.make_store(registry)
        for _ in range(3):
            self.probe(store, 16)
        stats = store.scheduler.stats()
        assert stats["probes"] == 3
        assert stats["repair_metadata_bytes"] == 48
        assert registry.snapshot()["scheduler.probes"] == 3
        # Every owner's counters — the scheduler's, the repair plane's
        # (read repair included) and the handoff plane's — and nothing
        # else: what the cluster-level scheduler_stats() sums.
        assert {f"scheduler.{name}" for name in stats} == {
            name for name in registry.names() if name.startswith("scheduler.")
        }
        assert {"ticks", "read_repairs", "read_repair_payload_bytes",
                "handoff_segments"} <= set(stats)

    def test_counters_survive_a_store_rebuild(self):
        registry = MetricsRegistry()
        self.probe(self.make_store(registry), 64)
        # A lose-state rebuild constructs a fresh store on the same
        # (surviving) registry: counts continue, nothing retires.
        second = self.make_store(registry)
        self.probe(second, 36)
        assert second.scheduler.stats()["repair_metadata_bytes"] == 100


class TestWalCounters:
    """The WAL counts in its replica's registry, under ``wal.*``."""

    def test_every_wal_count_is_a_registry_counter_from_construction(self):
        from repro.lattice import SetLattice
        from repro.wal import ReplicaWal
        from repro.wal.log import REPLAY_COUNTERS, SHARD_COUNTERS

        registry = MetricsRegistry()
        wal = ReplicaWal(0, registry=registry)
        assert registry.names() == sorted(
            f"wal.{name}" for name in SHARD_COUNTERS + REPLAY_COUNTERS
        )
        assert all(type(registry.counter(name)) is Counter for name in registry.names())
        wal.append(0, SetLattice({"a"}))
        wal.append(1, SetLattice({"b"}))
        wal.commit()
        wal.replay(0)
        snapshot = registry.snapshot()
        # The shard logs add to the replica's one counter per name.
        assert (snapshot["wal.wal_commits"], snapshot["wal.wal_records"]) == (2, 2)
        assert snapshot["wal.wal_replays"] == 1
        assert snapshot["wal.wal_replayed_bytes"] == wal.log(0).size_bytes()

    def test_a_standalone_store_counts_in_its_wals_registry(self):
        from repro.wal import ReplicaWal

        wal = ReplicaWal(0)
        store = TestSchedulerAdapter().make_store(wal=wal)
        assert store.registry is wal.registry
        store.update("set:a", "add", "x")
        store.sync_messages()  # the tick's group commit
        snapshot = store.registry.snapshot()
        assert snapshot["wal.wal_commits"] == 1
        assert snapshot["scheduler.ticks"] == 1


class TestSeriesHelpers:
    def test_bucket_series_sums_windows_and_skips_empty(self):
        items = [(0.0, 1), (40.0, 2), (250.0, 5)]
        series = bucket_series(
            items, 100.0, time=lambda r: r[0], value=lambda r: r[1]
        )
        assert series == [(0.0, 3), (200.0, 5)]

    def test_cumulative_running_total(self):
        assert cumulative([(0.0, 3), (200.0, 5)]) == [(0.0, 3), (200.0, 8)]

    def test_partition_at_boundary_goes_after(self):
        before, after = partition_at(
            [(99.0, "a"), (100.0, "b"), (101.0, "c")], 100.0, time=lambda r: r[0]
        )
        assert [x[1] for x in before] == ["a"]
        assert [x[1] for x in after] == ["b", "c"]

    def test_collector_series_built_on_helpers(self):
        from repro.sim.metrics import MessageRecord, MetricsCollector

        collector = MetricsCollector(2)
        for when, units in ((0.0, 2), (150.0, 3)):
            collector.record_message(
                MessageRecord(
                    time=when,
                    src=0,
                    dst=1,
                    kind="delta",
                    payload_units=units,
                    payload_bytes=units * 8,
                    metadata_bytes=4,
                )
            )
        assert collector.units_series(100.0) == [(0.0, 2), (100.0, 3)]
        assert collector.cumulative_units_series(100.0) == [(0.0, 2), (100.0, 5)]
        first, second = collector.split_at(100.0)
        assert first.message_count == 1
        assert second.message_count == 1


class TestConvergenceProbe:
    def test_window_opens_on_disagreement_and_closes_on_agreement(self):
        probe = ConvergenceProbe()
        assert probe.observe(0, {1: True}) == []
        assert probe.observe(1, {1: False}) == []
        assert probe.observe(2, {1: False}) == []
        assert probe.observe(3, {1: True}) == [(1, 2)]
        assert probe.closed == [(1, 1, 2)]

    def test_open_windows_are_reported_not_dropped(self):
        probe = ConvergenceProbe()
        probe.observe(5, {2: False})
        assert probe.open_lags(8) == {2: 3}
        assert probe.distribution()["count"] == 0

    def test_distribution(self):
        probe = ConvergenceProbe()
        for shard, (start, end) in enumerate(((0, 1), (0, 3), (2, 10))):
            probe.observe(start, {shard: False})
            probe.observe(end, {shard: True})
        distribution = probe.distribution()
        assert distribution["count"] == 3
        assert distribution["max"] == 8
        assert distribution["p50"] == 3

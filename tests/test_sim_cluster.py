"""Integration tests for the simulated cluster and the experiment runner."""

from collections import Counter

import pytest

from repro.net.clock import LATENCY_MS, SYNC_INTERVAL_MS
from repro.obs import MemoryTraceSink, read_trace
from repro.sim.metrics import MemorySample, MessageRecord, MetricsCollector
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.runner import ratio_table, run_experiment, run_suite
from repro.sim.topology import line, partial_mesh, tree
from repro.sync import (
    OpBased,
    Scuttlebutt,
    ScuttlebuttGC,
    StateBased,
    classic,
    delta_bp,
    delta_bp_rr,
    delta_rr,
)
from repro.workloads import GCounterWorkload, GSetWorkload

ALL = {
    "state-based": StateBased,
    "delta-based": classic,
    "delta-based-bp": delta_bp,
    "delta-based-rr": delta_rr,
    "delta-based-bp-rr": delta_bp_rr,
    "scuttlebutt": Scuttlebutt,
    "scuttlebutt-gc": ScuttlebuttGC,
    "op-based": OpBased,
}


class TestMetricsCollector:
    def test_message_aggregation(self):
        metrics = MetricsCollector(3)
        metrics.record_message(MessageRecord(10.0, 0, 1, "delta", 5, 50, 8))
        metrics.record_message(MessageRecord(20.0, 1, 2, "delta", 3, 30, 8))
        assert metrics.totals()["payload_units"] == 8
        assert metrics.total_payload_bytes() == 80
        assert metrics.total_metadata_bytes() == 16
        assert metrics.total_bytes() == 96

    def test_metadata_fraction(self):
        metrics = MetricsCollector(2)
        metrics.record_message(MessageRecord(0.0, 0, 1, "digest", 0, 0, 75))
        metrics.record_message(MessageRecord(0.0, 1, 0, "deltas", 5, 25, 0))
        assert metrics.metadata_fraction() == 0.75

    def test_units_series_buckets(self):
        metrics = MetricsCollector(2)
        metrics.record_message(MessageRecord(100.0, 0, 1, "d", 2, 2, 0))
        metrics.record_message(MessageRecord(900.0, 0, 1, "d", 3, 3, 0))
        metrics.record_message(MessageRecord(1500.0, 1, 0, "d", 4, 4, 0))
        series = metrics.units_series(window_ms=1000.0)
        assert series == [(0.0, 5), (1000.0, 4)]
        cumulative = metrics.cumulative_units_series(window_ms=1000.0)
        assert cumulative == [(0.0, 5), (1000.0, 9)]

    def test_split_at(self):
        metrics = MetricsCollector(2)
        metrics.record_message(MessageRecord(100.0, 0, 1, "d", 2, 2, 0))
        metrics.record_message(MessageRecord(5000.0, 0, 1, "d", 3, 3, 0))
        first, second = metrics.split_at(1000.0)
        assert first.totals()["payload_units"] == 2
        assert second.totals()["payload_units"] == 3

    def test_memory_averages(self):
        metrics = MetricsCollector(1)
        metrics.record_memory(MemorySample(0.0, 0, 10, 5, 100, 50, 7))
        metrics.record_memory(MemorySample(1.0, 0, 20, 5, 200, 50, 7))
        assert metrics.average_memory_units() == 20.0
        assert metrics.average_memory_bytes() == (157 + 257) / 2

    def test_empty_collector(self):
        metrics = MetricsCollector(1)
        assert metrics.metadata_fraction() == 0.0
        assert metrics.average_memory_units() == 0.0
        assert metrics.units_series(1000.0) == []


class TestClusterConfig:
    def test_latency_must_fit_in_interval(self):
        assert LATENCY_MS * 2 < SYNC_INTERVAL_MS

    @pytest.mark.parametrize(
        "fields, reason",
        (
            ({"loss_rate": 1.5}, "loss_rate"),
            ({"loss_rate": 1.0}, "loss_rate"),
            ({"loss_rate": -0.5}, "loss_rate"),
            ({"max_drain_rounds": 0}, "max_drain_rounds"),
            ({"max_drain_rounds": -1}, "max_drain_rounds"),
        ),
        ids=("loss-above-1", "loss-1", "loss-negative", "drain-0", "drain-negative"),
    )
    def test_refuses_what_no_run_can_use(self, fields, reason):
        with pytest.raises(ValueError, match=reason):
            ClusterConfig(line(2), **fields)

    def test_accepts_the_edges_of_the_ranges(self):
        config = ClusterConfig(line(2), loss_rate=0.0, max_drain_rounds=1)
        assert (config.loss_rate, config.max_drain_rounds) == (0.0, 1)
        assert ClusterConfig(line(2), loss_rate=0.99).loss_rate == 0.99


class TestClusterBasics:
    def test_two_nodes_converge(self):
        config = ClusterConfig(line(2))
        cluster = Cluster(config, delta_bp_rr, GSetWorkload(2, 1).bottom())
        workload = GSetWorkload(2, rounds=3)
        cluster.run_rounds(3, workload.updates_for)
        cluster.drain()
        assert cluster.converged()
        assert cluster.nodes[0].state.size_units() == 6

    def test_messaging_respects_topology(self):
        """A synchronizer addressing a non-neighbour is a hard error."""
        from repro.sync.protocol import Message, Send

        class Rogue(StateBased):
            def sync_messages(self):
                return [Send(dst=2, message=Message("state", self.state, 0, 0, 0))]

        config = ClusterConfig(line(3))
        cluster = Cluster(config, Rogue, GSetWorkload(3, 1).bottom())
        cluster.apply_update(0, GSetWorkload(3, 1).updates_for(0, 0)[0])
        with pytest.raises(ValueError):
            cluster.run_round(updates=None)

    def test_determinism(self):
        """Two identical runs produce byte-identical metrics."""

        def run_once():
            result = run_experiment(
                delta_bp_rr, GSetWorkload(5, rounds=5), partial_mesh(5, 2)
            )
            return (
                result.transmission_units(),
                result.transmission_bytes(),
                result.metrics.message_count,
                result.duration_ms,
            )

        assert run_once() == run_once()

    def test_memory_sampled_every_round(self):
        result = run_experiment(classic, GSetWorkload(3, rounds=4), line(3))
        rounds_total = 4 + result.drain_rounds
        assert len(result.metrics.memory) == rounds_total * 3


class TestFaultCounters:
    """Loss drops, fault kills, and refused sends are distinct events.

    Each run is traced, and each count must equal the number of its
    events in the trace: both are read from one collector record.
    """

    @staticmethod
    def counts_match_the_trace(cluster, sink):
        events = Counter(event.type for event in read_trace(sink))
        assert cluster.messages_dropped == events["message-dropped"]
        assert cluster.messages_severed == events["message-severed"]
        assert cluster.messages_blocked == events["send-blocked"]

    def test_loss_counts_as_dropped_not_severed(self):
        sink = MemoryTraceSink()
        config = ClusterConfig(line(2), loss_rate=0.5, loss_seed=3)
        cluster = Cluster(config, StateBased, GSetWorkload(2, 1).bottom(), trace=sink)
        workload = GSetWorkload(2, rounds=6)
        cluster.run_rounds(6, workload.updates_for)
        assert cluster.messages_dropped > 0
        assert cluster.messages_severed == 0
        self.counts_match_the_trace(cluster, sink)

    def test_in_flight_kill_counts_as_severed_not_dropped(self):
        sink = MemoryTraceSink()
        cluster = Cluster(
            ClusterConfig(line(2)), StateBased, GSetWorkload(2, 1).bottom(), trace=sink
        )
        cluster.apply_update(0, GSetWorkload(2, 1).updates_for(0, 0)[0])
        # Dispatch while the link is up, crash before delivery: the
        # in-flight message dies to the fault, not to network loss.
        cluster._dispatch(0, cluster.nodes[0].sync_messages())
        cluster.crash(1, lose_state=False)
        cluster.queue.run(until=cluster.queue.now + 1000.0)
        assert cluster.messages_severed == 1
        assert cluster.messages_dropped == 0
        self.counts_match_the_trace(cluster, sink)

    def test_refused_send_notifies_the_sender(self):
        notified = []

        class Watchful(StateBased):
            def note_send_blocked(self, dst):
                notified.append((self.replica, dst))

        sink = MemoryTraceSink()
        cluster = Cluster(
            ClusterConfig(line(2)), Watchful, GSetWorkload(2, 1).bottom(), trace=sink
        )
        cluster.apply_update(0, GSetWorkload(2, 1).updates_for(0, 0)[0])
        cluster.crash(1, lose_state=False)
        cluster.run_round(updates=None)
        assert cluster.messages_blocked > 0
        assert (0, 1) in notified
        self.counts_match_the_trace(cluster, sink)


class TestRunnerSuite:
    def test_all_algorithms_converge_to_same_state(self):
        topo = partial_mesh(6, 2)
        results = run_suite(ALL, lambda: GSetWorkload(6, rounds=6), topo)
        assert all(r.converged for r in results.values())
        assert len({r.final_state_units for r in results.values()}) == 1
        assert all(r.final_state_units == 36 for r in results.values())

    def test_gcounter_workload_converges_everywhere(self):
        topo = tree(7, 2)
        results = run_suite(ALL, lambda: GCounterWorkload(7, rounds=5), topo)
        assert all(r.converged for r in results.values())
        assert all(r.final_state_units == 7 for r in results.values())

    def test_ratio_table(self):
        topo = partial_mesh(6, 2)
        results = run_suite(
            {"delta-based": classic, "delta-based-bp-rr": delta_bp_rr},
            lambda: GSetWorkload(6, rounds=6),
            topo,
        )
        ratios = ratio_table(
            results, "delta-based-bp-rr", lambda r: r.transmission_units()
        )
        assert ratios["delta-based-bp-rr"] == 1.0
        assert ratios["delta-based"] > 1.0

    def test_classic_no_better_than_state_based_on_mesh(self):
        """The Figure 1 anomaly, at miniature scale."""
        topo = partial_mesh(8, 4)
        results = run_suite(
            {"state-based": StateBased, "delta-based": classic},
            lambda: GSetWorkload(8, rounds=10),
            topo,
        )
        classic_units = results["delta-based"].transmission_units()
        state_units = results["state-based"].transmission_units()
        assert classic_units > 0.5 * state_units  # no real improvement

    def test_bp_suffices_on_tree(self):
        topo = tree(7, 2)
        results = run_suite(
            {"delta-based-bp": delta_bp, "delta-based-bp-rr": delta_bp_rr},
            lambda: GSetWorkload(7, rounds=8),
            topo,
        )
        bp = results["delta-based-bp"].transmission_units()
        bprr = results["delta-based-bp-rr"].transmission_units()
        assert bp == bprr  # RR adds nothing without cycles

    def test_rr_dominates_on_mesh(self):
        topo = partial_mesh(8, 4)
        results = run_suite(
            {
                "delta-based-bp": delta_bp,
                "delta-based-rr": delta_rr,
                "delta-based-bp-rr": delta_bp_rr,
            },
            lambda: GSetWorkload(8, rounds=10),
            topo,
        )
        assert (
            results["delta-based-rr"].transmission_units()
            < results["delta-based-bp"].transmission_units()
        )
        assert (
            results["delta-based-bp-rr"].transmission_units()
            <= results["delta-based-rr"].transmission_units()
        )

    def test_result_metadata_fields(self):
        result = run_experiment(classic, GSetWorkload(3, rounds=2), line(3))
        assert result.algorithm == "delta-based"
        assert result.workload == "gset"
        assert result.topology == "line(3)"
        assert result.rounds == 2
        assert result.duration_ms > 0
        assert result.processing_seconds() > 0
        assert result.processing_units() > 0

"""Tracing threaded through the stack: exactness, no-op, CLI.

The load-bearing invariant: the transport emits the ``send`` trace
event at the exact point it records a :class:`MessageRecord` — before
the loss coin flip, with the same byte arguments — so byte totals
re-derived from the trace file alone equal the live collector's totals,
on the simulated and the real TCP transport alike.
"""

import io
import os
from dataclasses import replace

import pytest

from repro.driver import Stepped
from repro.cli import main
from repro.experiments.kv_sweep import KVConfig, run_kv_repair_cell
from repro.kv.antientropy import AntiEntropyConfig
from repro.kv.cluster import KVCluster
from repro.kv.ring import HashRing
from repro.obs import (
    MemoryTraceSink,
    Tracer,
    decode_event,
    read_trace,
    render_report,
    segment_phases,
    split_cells,
    trace_totals,
)
from repro.sync import ALGORITHMS

SMALL = KVConfig(
    replicas=6,
    keys=80,
    rounds=6,
    ops_per_node=3,
    shards=12,
    replication=2,
    repair_interval=3,
    repair_fanout=8,
)


def traced_fault_cell(tmp_path, transport):
    path = str(tmp_path / f"trace_{transport}.jsonl")
    config = KVConfig(
        **{**SMALL.__dict__, "deployment": Stepped(transport), "trace": path}
    )
    cell = run_kv_repair_cell(config, "delta-based-bp-rr", "wal")
    return cell, read_trace(path)


class TestTraceTotalsMatchCollector:
    @pytest.mark.parametrize("transport", ["sim", "tcp"])
    def test_fault_replay_totals_rederive_exactly(self, tmp_path, transport):
        cell, events = traced_fault_cell(tmp_path, transport)
        totals = trace_totals(events)
        assert totals["messages"] == cell.messages
        assert totals["payload_bytes"] == cell.payload_bytes
        assert totals["metadata_bytes"] == cell.metadata_bytes
        # The replay exercises the machinery the trace exists to explain.
        assert cell.converged
        types = {event.type for event in events}
        assert {"round", "send", "deliver", "crash", "recover",
                "partition", "heal", "wal-commit", "wal-replay",
                "cell-start", "cell-end"} <= types

    def test_phases_cover_the_fault_schedule(self, tmp_path):
        _, events = traced_fault_cell(tmp_path, "sim")
        (label, cell_events), = split_cells(events)
        assert label == "wal"
        phase_labels = [phase for phase, _ in segment_phases(cell_events)]
        assert phase_labels[0] == "traffic"
        for expected in ("partition", "healed", "crash", "recovery"):
            assert expected in phase_labels

    def test_seeded_trace_is_deterministic(self, tmp_path):
        first_path = str(tmp_path / "a.jsonl")
        second_path = str(tmp_path / "b.jsonl")
        for path in (first_path, second_path):
            config = KVConfig(**{**SMALL.__dict__, "trace": path})
            run_kv_repair_cell(config, "delta-based-bp-rr", "wal")
        with open(first_path, "rb") as first, open(second_path, "rb") as second:
            assert first.read() == second.read()


class TestDisabledTracingIsANoOp:
    def test_no_tracer_anywhere(self):
        ring = HashRing(replicas=(0, 1, 2), n_shards=8)
        cluster = KVCluster(
            ring,
            ALGORITHMS["delta-based"],
            antientropy=AntiEntropyConfig(repair_interval=3, repair_mode="digest"),
        )
        try:
            assert cluster.tracer is None
            assert cluster.transport.tracer is None
            assert cluster._lag_probe is None
            for node in cluster.nodes:
                assert node.tracer is None
            cluster.update("cnt:x", "increment", 1)
            cluster.run_round()
            cluster.drain()
        finally:
            cluster.close()

    def test_untraced_run_writes_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = KVConfig(**SMALL.__dict__)
        run_kv_repair_cell(config, "delta-based-bp-rr", "wal")
        assert os.listdir(tmp_path) == []

    def test_traced_and_untraced_runs_measure_identically(self, tmp_path):
        untraced = run_kv_repair_cell(
            KVConfig(**SMALL.__dict__), "delta-based-bp-rr", "wal"
        )
        traced, _ = traced_fault_cell(tmp_path, "sim")
        assert traced == untraced


class TestParentEraTraces:
    """Traces written before the ``timing`` event type was retired.

    Earlier writers closed every cell with a hot-path timer snapshot
    just before ``cell-end``; archived traces still carry those lines.
    """

    LINE = (
        '{"extra":{"runtime.deliver":{"calls":137,"seconds":0.0087,'
        '"units":925},"runtime.tick":{"calls":52,"seconds":0.0068,'
        '"units":1220}},"label":"wal","round":9,"time":8525.005,'
        '"type":"timing"}'
    )

    def test_decode_accepts_the_retired_type(self):
        event = decode_event(self.LINE)
        assert event.type == "timing"
        assert event.label == "wal"
        assert event.round == 9
        assert event.extra["runtime.tick"]["calls"] == 52

    def test_report_ignores_the_retired_lines(self, tmp_path):
        path = str(tmp_path / "current.jsonl")
        config = KVConfig(**{**SMALL.__dict__, "trace": path})
        run_kv_repair_cell(config, "delta-based-bp-rr", "wal")
        events = read_trace(path)
        end = events[-1]
        assert end.type == "cell-end"
        # Stamped the way the earlier writer stamped it: same clock
        # reading, same round and label as the cell-end that follows.
        timing = replace(
            decode_event(self.LINE), time=end.time, round=end.round, label=end.label
        )
        old = events[:-1] + [timing, end]
        assert render_report(old) == render_report(events)


class TestLagProbe:
    def test_partition_produces_lag_events(self):
        sink = MemoryTraceSink()
        ring = HashRing(replicas=(0, 1, 2, 3), n_shards=8)
        cluster = KVCluster(
            ring,
            ALGORITHMS["delta-based"],
            antientropy=AntiEntropyConfig(repair_interval=3, repair_mode="digest"),
            trace=Tracer(sink),
        )
        try:
            cluster.partition([0, 1])
            for index in range(3):
                cluster.update(f"cnt:k{index}", "increment", 1)
                cluster.run_round()
            cluster.heal()
            cluster.drain()
        finally:
            cluster.close()
        lags = [event for event in read_trace(sink) if event.type == "lag"]
        assert lags, "divergence windows never closed into lag events"
        for event in lags:
            assert event.shard is not None
            assert event.extra["rounds"] >= 1


class TestTraceCli:
    def test_report_renders_phases(self, tmp_path, capsys):
        path = str(tmp_path / "cli.jsonl")
        config = KVConfig(**{**SMALL.__dict__, "trace": path})
        run_kv_repair_cell(config, "delta-based-bp-rr", "wal")
        stream = io.StringIO()
        assert main(["trace", "report", path], stream=stream) == 0
        report = stream.getvalue()
        assert "cell: wal" in report
        assert "recovery" in report
        assert "convergence lag (rounds): count=" in report

    def test_report_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_kv_flag_writes_the_trace(self, tmp_path):
        path = str(tmp_path / "kv.jsonl")
        stream = io.StringIO()
        code = main(
            [
                "run", "kv-sweep", "--config",
                '{"replicas": 6, "keys": 60, "rounds": 4, "ops_per_node": 2,'
                ' "shards": 8, "replication": 2}',
                "--set", f"trace={path}",
            ],
            stream=stream,
        )
        assert code == 0
        events = read_trace(path)
        assert trace_totals(events)["messages"] > 0
        # One cell per swept algorithm, all in the one file.
        assert len(split_cells(events)) == 4
        assert "empty trace" not in render_report(events)

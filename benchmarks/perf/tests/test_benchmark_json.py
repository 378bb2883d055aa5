"""BENCHMARK.json against the driver's schema and the runner's output."""

import json
import os
import re
import subprocess
import sys

import pytest

import declared
import tracer as tracing

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(PERF))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def document():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        text = handle.read()
    assert len(text.encode("utf-8")) <= 64 * 1024
    return json.loads(text)


def test_checked_in_file_is_what_the_runner_declares(document):
    assert document == declared.benchmark_json()


def test_top_level_keys_and_limits(document):
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60
    assert 1 <= len(document["paths"]) <= 16
    assert 1 <= len(document["command"]) <= 32
    assert all(len(part) <= 200 for part in document["command"])


def test_paths_hold_the_benchmark_and_the_command_stays_inside_them(document):
    assert document["paths"] == ["benchmarks/perf"]
    for path in document["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert os.path.isdir(os.path.join(ROOT, path))
    script = document["command"][1]
    assert any(script.startswith(path + "/") for path in document["paths"])
    assert os.path.isfile(os.path.join(ROOT, script))


def test_names_units_and_shapes(document):
    names = []
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and 0 < len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names)), "a name is used twice"


def test_the_five_workloads_keep_their_names_and_the_driver_runs_two(document):
    assert declared.WORKLOAD_NAMES == (
        "paper-micro", "store-sim-100k", "tcp-faults", "serve-mixed", "serve-quorum-write",
    )
    assert [w["name"] for w in document["workloads"]] == ["paper-micro", "tcp-faults"]
    assert tuple(w["name"] for w in document["workloads"]) == declared.DRIVER_WORKLOADS


def test_setup_time_is_gated_with_the_largest_bound(document):
    by_name = {metric["name"]: metric for metric in document["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in document["end_to_end"])


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {metric.name for metric in declared.END_TO_END + declared.REPORTED}
    for metric in declared.layer_metrics():
        if metric.name == "trace_overhead_ratio":
            continue  # describes the measurement, not the program
        assert metric.moves, f"{metric.name} predicts no end-to-end movement"
        for moved, workload in metric.moves:
            assert moved in end_to_end, (metric.name, moved)
            assert workload in declared.WORKLOAD_NAMES, (metric.name, workload)


def test_every_span_of_the_table_yields_its_metrics():
    declared_names = {metric.name for metric in declared.layer_metrics()}
    for span in tracing.span_names():
        assert f"{span}.calls" in declared_names
        assert f"{span}.self_s" in declared_names
    for span in tracing.byte_spans():
        assert f"{span}.bytes" in declared_names


def test_the_issues_sixteen_end_to_end_metrics_are_all_declared():
    names = {metric.name for metric in declared.END_TO_END + declared.REPORTED}
    assert names == {
        "setup_s", "ops_per_s", "put_p50_ms", "put_p99_ms", "get_p50_ms", "get_p99_ms",
        "rounds_per_s", "local_writes_per_s", "backlog_flush_s", "converge_s",
        "wire_bytes_per_update", "repair_bytes", "tx_ratio_vs_state", "mem_bytes_avg",
        "failed_op_share", "peak_rss_mb",
        "acked_op_share",  # failed_op_share's never-zero complement, the gated form
    }
    # The driver wants a gated metric on every workload; the rest say where they apply.
    assert all(not metric.workloads for metric in declared.END_TO_END)
    for metric in declared.REPORTED:
        assert all(name in declared.WORKLOAD_NAMES for name in metric.workloads)
        assert metric.bound is not None


def _contract_run(trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, os.path.join(PERF, "run.py"),
            "--workload", "paper-micro", "--seed", "5", "--seconds", "0.5",
            "--trace", str(trace),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=170, check=True,
    )
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_the_runner_prints_exactly_the_declared_names(document, trace, section):
    line = _contract_run(trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    listed = {metric["name"]: metric["unit"] for metric in document[section]}
    printed = {name: entry["unit"] for name, entry in line["metrics"].items()}
    assert printed == listed
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
    if trace == 0:
        assert all(entry["value"] != 0 for entry in line["metrics"].values())
    else:
        metrics = line["metrics"]
        # Self times plus the stated residual are the traced wall clock;
        # on this in-process workload no replica process contributes.
        assert metrics["serve.replica.self_s"]["value"] == 0
        assert metrics["residual_s"]["value"] > 0
        assert metrics["lattice.join.calls"]["value"] > 0
        assert metrics["serve.client.put.calls"]["value"] == 0  # bypassed

"""The perf benchmark's one command.

Two ways in:

* **Report mode** (for people)::

      PYTHONPATH=src python benchmarks/perf/run.py [--workload W] [--seed S]
                                                   [--reps N] [--traced]

  runs each workload ``--reps`` times, every repetition in a fresh
  process, prints every end-to-end metric by name with its unit (median,
  min, max), the oracle verdicts, and — with ``--traced`` — the per-layer
  table of one more, traced, run.  The same goes to
  ``benchmarks/perf/results/latest.json``.

* **Contract mode** (for the driver)::

      python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

  runs the workload once and prints, as the last line of stdout, one
  JSON object ``{"correct", "attempted", "failed", "metrics"}``: every
  ``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``, every
  ``per_layer`` metric with ``--trace 1`` (which runs the workload twice:
  untraced for the reference wall clock, then one traced replay).

Either way this process only orchestrates: each run is a child
(``--child``) started with a pinned ``PYTHONHASHSEED`` and ``src`` on
``PYTHONPATH``, in its own process group, which is killed on the way
out so no replica process outlives the benchmark.  The child and all
its descendants run on one core.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SCRATCH = os.path.join(HERE, ".run")
REPLICA_SITE = os.path.join(HERE, "replica_site")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

import declared  # noqa: E402
import stats  # noqa: E402

#: Seconds a child may take before it is killed (the driver allows 180).
CHILD_TIMEOUT_S = 170.0


# ----------------------------------------------------------------------
# The child: one workload, once, in this process.
# ----------------------------------------------------------------------


def _stolen_s(cpu: int) -> float:
    """Seconds the host has kept ``cpu`` from this VM so far (``/proc/stat`` steal)."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            for line in handle:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def child_main(args: argparse.Namespace) -> int:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import cells
    import tracer as tracing

    scratch = args.scratch
    os.makedirs(scratch, exist_ok=True)
    # One core for the driver and every process it spawns.  A closed loop
    # with one request in flight has no parallelism to lose, and on this VM
    # an idle vCPU halts: waking one for each hop of a request costs 0.1 ms
    # some hours and 0.3 ms others (serve-mixed put_p50 0.27-0.45 ms across
    # cores within one set of runs, 0.23-0.25 ms on one core).
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    stolen_before = _stolen_s(core)
    scale = args.seconds / declared.RUN_SECONDS
    active: Optional[tracing.LayerTracer] = None
    if args.traced:
        span_dir = os.path.join(scratch, "spans")
        os.makedirs(span_dir, exist_ok=True)
        # Replica processes inherit the environment: the extra path
        # entry makes them import replica_site/sitecustomize.py, which
        # installs the same span table and dumps it at exit.
        os.environ[tracing.SPAN_DIR_ENV] = span_dir
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (REPLICA_SITE, HERE, os.environ.get("PYTHONPATH", "")) if p
        )
        active = tracing.LayerTracer()
    ctx = cells.RunContext(scratch=scratch, tracer=active)
    started = time.perf_counter()
    if active is not None:
        active.install()
    try:
        result = cells.CELLS[args.workload](args.seed, scale, ctx)
    finally:
        if active is not None:
            active.uninstall()
    wall_s = time.perf_counter() - started
    # Context only, never applied to a metric: the share of this run's
    # wall clock for which the host ran someone else on our core.
    result.extra["host_steal_share"] = (_stolen_s(core) - stolen_before) / wall_s
    if active is not None and result.user_deltas is not None:
        # Sized only now, with the tracer off: committed log bytes per
        # byte of encoded user delta.
        user_bytes = result.user_deltas.encoded_bytes()
        if user_bytes:
            result.counters["wal.write_amp"] = (
                result.counters["wal.committed_bytes"] / user_bytes
            )

    correct = all(result.oracle.values())
    out: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.traced),
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed if correct else result.attempted,
        "oracle": result.oracle,
        "wall_s": wall_s,
        "replay_wall_s": result.replay_wall_s,
        "e2e": result.e2e,
        "counters": result.counters,
        "extra": result.extra,
    }
    out["e2e"]["failed_op_share"] = out["failed"] / max(1, out["attempted"])
    out["e2e"]["acked_op_share"] = 1.0 - out["e2e"]["failed_op_share"]
    if active is not None:
        out["layers"] = active.aggregate()
        out["replica_layers"] = result.replica_layers or {}
        out["spans_seen"] = active.spans_seen
        if args.spans_out:
            active.write_spans(args.spans_out, others=result.replica_spans)
    print(json.dumps(out, separators=(",", ":")))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The parent: spawn children, collect, print.
# ----------------------------------------------------------------------


class ChildFailed(RuntimeError):
    """A child run ended without a result."""


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    *,
    traced: bool = False,
    spans_out: Optional[str] = None,
) -> Dict[str, Any]:
    """One fresh-process run of ``workload``; returns the child's report."""
    scratch = os.path.join(SCRATCH, f"{os.getpid()}")
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--scratch", scratch,
    ]
    if traced:
        cmd.append("--traced")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ)
    # Hash randomization moves dict/set layouts between processes, and
    # with them both timings and any byte count that depends on
    # iteration order; pin it so a seed means one run.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: no result within {CHILD_TIMEOUT_S:.0f}s") from None
    finally:
        # The child leads its own process group; whatever it left
        # behind (replica processes after a crash) goes with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)  # the last run out leaves the checkout clean
        except OSError:
            pass
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload}: child exited {proc.returncode} with no output")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        raise ChildFailed(
            f"{workload}: child exited {proc.returncode}; last line: {lines[-1][:200]}"
        ) from None
    return report


def layer_values(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of one (untraced, traced) pair of runs.

    Span figures merge the driver process with the replica processes;
    ``residual_s`` is the driver's wall clock minus the driver's own
    self times, so ``sum(<span>.self_s) - serve.replica.self_s +
    residual_s`` equals the traced wall clock exactly.
    """
    import tracer as tracing

    driver = traced["layers"]
    replicas = traced.get("replica_layers") or {}
    merged = tracing.merge_aggregates([driver, replicas])
    values: Dict[str, float] = {}
    with_bytes = set(tracing.byte_spans())
    for span in tracing.span_names():
        entry = merged.get(span, {})
        values[f"{span}.calls"] = entry.get("calls", 0)
        values[f"{span}.self_s"] = entry.get("self_s", 0.0)
        if span in with_bytes:
            values[f"{span}.bytes"] = entry.get("bytes", 0)
    # Byte counters agree between the two runs; CPU figures are taken
    # from the untraced one, ``wal.write_amp`` exists in the traced only.
    counters = dict(traced["counters"])
    counters.update(untraced["counters"])
    for metric in declared.counter_metrics():
        values[metric.name] = counters.get(metric.name, 0)
    values["serve.replica.self_s"] = sum(e.get("self_s", 0.0) for e in replicas.values())
    values["residual_s"] = traced["wall_s"] - sum(e["self_s"] for e in driver.values())
    # One traced replay against the median untraced replay.
    values["trace_overhead_ratio"] = traced["replay_wall_s"] / untraced["replay_wall_s"]
    for metric in declared.REPORTED:
        values[metric.name] = untraced["e2e"].get(metric.name, 0)  # 0 = does not apply
    return values


def contract_main(args: argparse.Namespace) -> int:
    if args.workload not in declared.WORKLOAD_NAMES:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    untraced = run_child(args.workload, args.seed, args.seconds)
    reports = [untraced]
    if args.trace:
        traced = run_child(args.workload, args.seed, args.seconds, traced=True)
        reports.append(traced)
        values = layer_values(untraced, traced)
        listed = declared.per_layer()
    else:
        values = untraced["e2e"]
        listed = list(declared.END_TO_END)
    correct = all(report["correct"] for report in reports)
    line = {
        "correct": correct,
        "attempted": int(untraced["attempted"]),
        "failed": int(untraced["failed"]),
        "metrics": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in listed
        },
    }
    for report in reports:
        failed = [name for name, ok in report["oracle"].items() if not ok]
        if failed:
            print(f"oracle failed: {', '.join(failed)}", file=sys.stderr)
    print(json.dumps(line, separators=(", ", ": ")))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Report mode.
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    if abs(value) >= 1:
        return f"{value:.3f}"
    return f"{value:.5f}"


def print_end_to_end(workload: str, reports: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    print(f"\n== {workload}: end to end, {len(reports)} fresh-process run(s) of "
          f"{reports[-1]['extra']['replays']} replay(s) each, tracing off ==")
    print(f"  {'metric':<24}{'unit':<7}{'better':<8}{'median':>14}{'min':>14}{'max':>14}  bound")
    table: Dict[str, Any] = {}
    gated = {metric.name for metric in declared.END_TO_END}
    rows = [
        (m, [r["e2e"][m.name] for r in reports])
        for m in declared.END_TO_END + declared.REPORTED
        # A p99 is missing where fewer than ten samples lie beyond it.
        if declared.applies(m, workload) and all(m.name in r["e2e"] for r in reports)
    ]
    for metric, values in rows:
        summary = stats.summarize(values)
        table[metric.name] = dict(summary, unit=metric.unit, values=values)
        bound = f"{metric.bound:.1%}" if metric.name in gated else "reported"
        print(
            f"  {metric.name:<24}{metric.unit:<7}{metric.better:<8}"
            f"{_fmt(summary['median']):>14}{_fmt(summary['min']):>14}"
            f"{_fmt(summary['max']):>14}  {bound}"
        )
    last = reports[-1]
    extra = last["extra"]
    for verb in ("put", "get"):
        if not extra[f"{verb}_samples"]:
            continue
        tail = extra.get(f"{verb}_tail")
        tail_text = f"p{tail['q'] * 100:g}={tail['ms']:.4f}ms" if tail else "no tail"
        print(
            f"  {verb}: {extra[f'{verb}_samples']} samples, highest supported "
            f"percentile {tail_text}; ungated p99.9={extra[f'{verb}_p999_ms']:.4f}ms "
            f"max={extra[f'{verb}_max_ms']:.4f}ms"
        )
    print(f"  drain rounds: {extra['drain_rounds']:g}   attempted={last['attempted']} "
          f"failed={last['failed']}   host steal: "
          + ", ".join(f"{r['extra']['host_steal_share']:.1%}" for r in reports))
    verdicts = {name: all(r["oracle"][name] for r in reports) for name in last["oracle"]}
    print("  oracle: " + ", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in verdicts.items()))
    return {"end_to_end": table, "oracle": verdicts, "extra": extra}


def print_layers(workload: str, untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    import tracer as tracing

    values = layer_values(untraced, traced)
    driver = traced["layers"]
    replicas = traced.get("replica_layers") or {}
    print(f"\n== {workload}: per layer, one traced run ({traced['spans_seen']} driver spans) ==")
    print(f"  {'span':<30}{'calls':>10}{'driver self_s':>15}{'replica self_s':>16}{'bytes':>14}")
    with_bytes = set(tracing.byte_spans())
    for span in tracing.span_names():
        calls = values[f"{span}.calls"]
        if not calls:
            continue
        nbytes = f"{values[f'{span}.bytes']:,}" if span in with_bytes else ""
        print(
            f"  {span:<30}{calls:>10,}{driver.get(span, {}).get('self_s', 0.0):>15.4f}"
            f"{replicas.get(span, {}).get('self_s', 0.0):>16.4f}{nbytes:>14}"
        )
    bypassed = [s for s in tracing.span_names() if not values[f"{s}.calls"]]
    print(f"  bypassed (0 calls): {', '.join(bypassed) or 'none'}")
    driver_self = sum(entry["self_s"] for entry in driver.values())
    print(
        f"  sum driver self_s {driver_self:.4f} + residual_s {values['residual_s']:.4f} "
        f"= traced wall {traced['wall_s']:.4f} s; trace_overhead_ratio "
        f"{values['trace_overhead_ratio']:.3f} (traced replay / untraced replay)"
    )
    for metric in declared.counter_metrics():
        if metric.name in ("residual_s", "trace_overhead_ratio"):
            continue  # printed in the identity line above
        if values[metric.name]:
            print(f"  {metric.name:<42}{_fmt(values[metric.name]):>16} {metric.unit}")
    return values


def report_main(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(declared.WORKLOAD_NAMES)
    unknown = [name for name in names if name not in declared.WORKLOAD_NAMES]
    if unknown:
        print(f"unknown workload {unknown[0]!r} (known: {', '.join(declared.WORKLOAD_NAMES)})",
              file=sys.stderr)
        return 2
    document: Dict[str, Any] = {
        "seed": args.seed, "reps": args.reps, "seconds": args.seconds, "workloads": {},
    }
    all_correct = True
    for workload in names:
        reports = [
            run_child(workload, args.seed, args.seconds) for _ in range(args.reps)
        ]
        entry = print_end_to_end(workload, reports)
        all_correct &= all(report["correct"] for report in reports)
        if args.traced:
            spans_out = os.path.join(RESULTS, f"{workload}.spans.jsonl")
            traced = run_child(
                workload, args.seed, args.seconds, traced=True, spans_out=spans_out
            )
            all_correct &= traced["correct"]
            entry["per_layer"] = print_layers(workload, reports[0], traced)
        document["workloads"][workload] = entry
    os.makedirs(RESULTS, exist_ok=True)
    out_path = os.path.join(RESULTS, "latest.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {os.path.relpath(out_path, ROOT)}; "
          f"{'all oracles passed' if all_correct else 'ORACLE FAILURE'}")
    return 0 if all_correct else 1


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of: " + ", ".join(declared.WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(declared.RUN_SECONDS),
                        help="nominal measuring time; scales op and round counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--reps", type=int, default=3, help="report mode: runs per workload")
    parser.add_argument("--traced", action="store_true",
                        help="report mode: add one traced run per workload; child: trace")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", default=SCRATCH, help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"{SRC}/repro not found: the benchmark measures that package", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    try:
        if args.trace is not None:
            if not args.workload:
                print("--trace needs --workload", file=sys.stderr)
                return 2
            return contract_main(args)
        return report_main(args)
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line experiment runner: ``python -m repro``.

Regenerates any registered experiment — the paper's evaluation
artifacts and the kv store scenarios — from a terminal, without
writing a driver script::

    python -m repro list
    python -m repro run figure7 --set nodes=15 --set rounds=100
    python -m repro run figure9 --set sizes=8,16,32
    python -m repro run figure11 --scale ci --set coefficients=0.5,1.0,1.5
    python -m repro run all --scale ci
    python -m repro run kv-sweep --set workload=retwis --set zipf=1.5
    python -m repro run kv-faults --set strategies=blanket,digest,wal
    python -m repro run kv-rebalance --set deployment=tcp --set replicas=6
    python -m repro run kv-quorum --config '{"replicas": 4, "keys": 64}'

The registry is :data:`repro.experiments.EXPERIMENTS`; each entry's
frozen config type names the fields ``--set`` and ``--config`` accept
and refuses every illegal combination (exit 2 with the reason).  Each
run prints the same plain-text table the corresponding
``benchmarks/bench_*.py`` target produces.  ``--scale`` selects the
entry's preset: ``ci`` (seconds, shape-preserving), ``default`` (the
config's defaults), and ``paper`` (the paper's full 15/50-node
deployments; minutes; paper artifacts only).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.config import build_config
from repro.experiments import EXPERIMENTS, Experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the evaluation of 'Efficient Synchronization of "
            "State-based CRDTs' (Enes et al., ICDE 2019)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the available experiments")

    run = commands.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="registered experiment ('all': every paper artifact)",
    )
    run.add_argument(
        "--scale",
        choices=("ci", "default", "paper"),
        default="default",
        help="config preset (ci: seconds; paper: the full deployment)",
    )
    run.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help=(
            "override one config field (repeatable; tuples are "
            "comma-separated, null clears an optional field)"
        ),
    )
    run.add_argument(
        "--config",
        default=None,
        metavar="JSON",
        help="config fields as one JSON object (applied before --set)",
    )
    run.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the report to this file",
    )

    trace = commands.add_parser(
        "trace", help="post-process a structured trace file"
    )
    trace.add_argument(
        "action",
        choices=("report",),
        help="report: render the per-phase timeline with byte breakdowns",
    )
    trace.add_argument(
        "path",
        type=str,
        help=(
            "JSONL trace file (a kv config's trace field), or a "
            "directory of per-process trace files (a proc deployment), "
            "merged by round with origin attribution"
        ),
    )

    serve = commands.add_parser(
        "serve-replica",
        help=(
            "run one replica as a serving process (spawned by the "
            "ProcessCluster controller; rarely invoked by hand)"
        ),
    )
    serve.add_argument(
        "--options",
        required=True,
        help="the replica's configuration: one ReplicaOptions value as JSON",
    )
    return parser


def _config(name: str, entry: Experiment, args: argparse.Namespace):
    """The entry's config: scale preset, then ``--config``, then ``--set``.

    Raises ``ValueError`` for anything the config type refuses.
    """
    if args.scale not in entry.scales:
        raise ValueError(
            f"{name} has no {args.scale!r} scale (scales: {', '.join(entry.scales)})"
        )
    values = json.loads(args.config) if args.config is not None else {}
    if not isinstance(values, dict):
        raise ValueError("--config takes one JSON object")
    for item in args.set:
        field, equals, value = item.partition("=")
        if not equals:
            raise ValueError(f"--set takes FIELD=VALUE, got {item!r}")
        values[field] = value
    return build_config(entry.config, {**entry.scales[args.scale], **values})


def _emit(text: str, out_path: Optional[str], stream) -> None:
    print(text, file=stream)
    if out_path:
        with open(out_path, "a", encoding="utf-8") as handle:
            handle.write(text + "\n")


def main(argv: Optional[List[str]] = None, stream=None) -> int:
    """Entry point; returns a process exit code."""
    stream = stream if stream is not None else sys.stdout
    args = build_parser().parse_args(argv)

    if args.command == "serve-replica":
        from repro.serve.replica import ReplicaOptions, ReplicaProcess

        # A malformed value raises here: the process exits non-zero with
        # the reason on stderr, which the controller keeps as r###.log.
        ReplicaProcess(ReplicaOptions.from_json(args.options)).run()
        return 0

    if args.command == "trace":
        from repro.obs import read_trace, render_report

        try:
            events = read_trace(args.path)
        except OSError as exc:
            print(f"repro trace: cannot read {args.path}: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"repro trace: malformed trace {args.path}: {exc}", file=sys.stderr)
            return 2
        print(render_report(events), file=stream)
        return 0

    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, entry in sorted(EXPERIMENTS.items()):
            mark = "*" if entry.in_all else " "
            print(f"{name.ljust(width)} {mark} {entry.description}", file=stream)
        print("(* = regenerated by 'repro run all')", file=stream)
        return 0

    targets = (
        sorted(name for name, entry in EXPERIMENTS.items() if entry.in_all)
        if args.experiment == "all"
        else [args.experiment]
    )
    try:
        configs = [(name, _config(name, EXPERIMENTS[name], args)) for name in targets]
    except ValueError as exc:
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    for name, config in configs:
        started = time.perf_counter()
        result = EXPERIMENTS[name].run(config)
        elapsed = time.perf_counter() - started
        _emit(result.render(), args.out, stream)
        _emit(f"[{name} completed in {elapsed:.1f}s]\n", args.out, stream)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

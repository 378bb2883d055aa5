"""Command-line experiment runner: ``python -m repro``.

Regenerates any of the paper's evaluation artifacts from a terminal,
without writing a driver script::

    python -m repro list
    python -m repro run figure7 --nodes 15 --rounds 100
    python -m repro run figure9 --sizes 8,16,32
    python -m repro run figure11 --coefficients 0.5,1.0,1.5 --scale ci
    python -m repro run all --scale ci
    python -m repro kv --replicas 16 --keys 1000 --workload zipf
    python -m repro kv --workload retwis --zipf 1.5 --budget 4096
    python -m repro kv --repair 4 --repair-mode digest --faults
    python -m repro kv --faults --recovery wal
    python -m repro kv --rebalance
    python -m repro kv --rebalance --transport tcp --replicas 6
    python -m repro kv --rebalance --transport proc --replicas 5
    python -m repro kv --transport tcp --replicas 8 --keys 200

Each run prints the same plain-text table the corresponding
``benchmarks/bench_*.py`` target produces, so CLI output can be diffed
against EXPERIMENTS.md.  ``--scale`` selects parameter presets: ``ci``
(seconds, shape-preserving), ``default`` (the drivers' defaults), and
``paper`` (the paper's full 15/50-node deployments; minutes).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import (
    EXPERIMENTS,
    DEFAULT_ALGORITHMS as _KV_DEFAULT_ALGORITHMS,
    KVConfig,
    RECOVERY_STRATEGIES as _RECOVERY_STRATEGIES,
    RetwisConfig,
    run_kv_repair_comparison,
    run_kv_sweep,
    run_appendixb,
    run_figure1,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12,
    run_table1,
    run_table2,
)
from repro.driver import Stepped, deployment_from_flags
from repro.kv import RECOVERY_POLICIES as _RECOVERY_POLICIES

#: Micro-benchmark presets per scale: node count and update rounds.
_MICRO_SCALES = {
    "ci": {"nodes": 8, "rounds": 10},
    "default": {"nodes": 15, "rounds": 30},
    "paper": {"nodes": 15, "rounds": 100},
}

_FIGURE9_SCALES = {
    "ci": {"sizes": (8, 16), "rounds": 10},
    "default": {"sizes": (8, 16, 32), "rounds": 30},
    "paper": {"sizes": (8, 16, 32, 48), "rounds": 100},
}

_RETWIS_SCALES = {
    "ci": RetwisConfig(nodes=10, degree=4, users=120, rounds=10, ops_per_node=6),
    "default": RetwisConfig(),
    "paper": RetwisConfig.paper_scale(),
}

_RETWIS_COEFFICIENTS = {
    "ci": (0.5, 1.0, 1.5),
    "default": (0.5, 1.0, 1.25, 1.5),
    "paper": (0.5, 0.75, 1.0, 1.25, 1.5),
}


def _parse_floats(text: str) -> Sequence[float]:
    return tuple(float(part) for part in text.split(",") if part)


def _parse_ints(text: str) -> Sequence[int]:
    return tuple(int(part) for part in text.split(",") if part)


def _micro_kwargs(args: argparse.Namespace) -> Dict[str, int]:
    preset = dict(_MICRO_SCALES[args.scale])
    if args.nodes is not None:
        preset["nodes"] = args.nodes
    if args.rounds is not None:
        preset["rounds"] = args.rounds
    return preset


def _retwis_inputs(args: argparse.Namespace):
    config = _RETWIS_SCALES[args.scale]
    coefficients = _RETWIS_COEFFICIENTS[args.scale]
    if args.coefficients is not None:
        coefficients = args.coefficients
    if args.nodes is not None or args.users is not None:
        config = RetwisConfig(
            nodes=args.nodes or config.nodes,
            degree=config.degree,
            users=args.users or config.users,
            rounds=args.rounds or config.rounds,
            ops_per_node=config.ops_per_node,
            seed=config.seed,
        )
    return coefficients, config


def _run_figure1(args):
    return run_figure1(**_micro_kwargs(args))


def _run_table1(args):
    preset = _micro_kwargs(args)
    return run_table1(nodes=preset["nodes"])


def _run_figure7(args):
    return run_figure7(**_micro_kwargs(args))


def _run_figure8(args):
    return run_figure8(**_micro_kwargs(args))


def _run_figure9(args):
    preset = dict(_FIGURE9_SCALES[args.scale])
    if args.sizes is not None:
        preset["sizes"] = args.sizes
    if args.rounds is not None:
        preset["rounds"] = args.rounds
    return run_figure9(**preset)


def _run_figure10(args):
    return run_figure10(**_micro_kwargs(args))


def _run_table2(args):
    return run_table2(ops=args.ops or 20_000)


def _run_appendixb(args):
    preset = _micro_kwargs(args)
    return run_appendixb(nodes=preset["nodes"], rounds=preset["rounds"])


def _run_figure11(args):
    coefficients, config = _retwis_inputs(args)
    return run_figure11(coefficients, config)


def _run_figure12(args):
    coefficients, config = _retwis_inputs(args)
    return run_figure12(coefficients, config)


_RUNNERS: Dict[str, Callable] = {
    "appendixb": _run_appendixb,
    "figure1": _run_figure1,
    "table1": _run_table1,
    "figure7": _run_figure7,
    "figure8": _run_figure8,
    "figure9": _run_figure9,
    "figure10": _run_figure10,
    "table2": _run_table2,
    "figure11": _run_figure11,
    "figure12": _run_figure12,
}

_DESCRIPTIONS = {
    "appendixb": "the Figure 7 grid on causal add/remove data (OR-set)",
    "figure1": "classic delta ≈ state-based on a 15-node mesh (GSet)",
    "table1": "micro-benchmark definitions (workload registry)",
    "figure7": "transmission ratios, GSet & GCounter, tree + mesh",
    "figure8": "transmission ratios, GMap 10/30/60/100%, tree + mesh",
    "figure9": "metadata bytes per node vs cluster size",
    "figure10": "memory ratios vs BP+RR on the mesh",
    "table2": "Retwis workload characterization",
    "figure11": "Retwis bandwidth & memory vs Zipf contention",
    "figure12": "CPU overhead of classic vs BP+RR (Retwis)",
}


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
        choices=sorted(_RUNNERS) + ["all"],
        help="paper artifact to regenerate",
    )
    run.add_argument(
        "--scale",
        choices=("ci", "default", "paper"),
        default="default",
        help="parameter preset (ci: seconds; paper: the full deployment)",
    )
    run.add_argument("--nodes", type=int, help="override the node count")
    run.add_argument("--rounds", type=int, help="override the update rounds")
    run.add_argument("--users", type=int, help="Retwis user count (figure11/12)")
    run.add_argument("--ops", type=int, help="operation count (table2)")
    run.add_argument(
        "--sizes", type=_parse_ints, help="cluster sizes, comma-separated (figure9)"
    )
    run.add_argument(
        "--coefficients",
        type=_parse_floats,
        help="Zipf coefficients, comma-separated (figure11/12)",
    )
    run.add_argument(
        "--out", type=str, default=None, help="also write the report to this file"
    )

    kv = commands.add_parser(
        "kv", help="sweep synchronization protocols over the sharded kv store"
    )
    kv.add_argument("--replicas", type=int, default=16, help="store replicas")
    kv.add_argument("--keys", type=int, default=1000, help="keyspace size (zipf)")
    kv.add_argument("--rounds", type=int, default=20, help="update rounds")
    kv.add_argument("--ops", type=int, default=8, help="operations per node per round")
    kv.add_argument("--users", type=int, default=200, help="Retwis users")
    kv.add_argument("--zipf", type=float, default=1.0, help="Zipf coefficient")
    kv.add_argument("--replication", type=int, default=3, help="replicas per shard")
    kv.add_argument("--shards", type=int, default=32, help="shard count")
    kv.add_argument("--seed", type=int, default=42, help="workload RNG seed")
    kv.add_argument(
        "--workload", choices=("zipf", "retwis"), default="zipf", help="traffic shape"
    )
    kv.add_argument(
        "--transport",
        choices=("sim", "tcp", "proc"),
        default="sim",
        help=(
            "replica transport: the deterministic simulator (size-model "
            "bytes), localhost asyncio TCP sockets in one process "
            "(measured wire bytes), or one OS process per replica with "
            "advisory-locked WAL dirs and SIGKILL crashes (proc)"
        ),
    )
    kv.add_argument(
        "--execution",
        choices=("rounds", "free"),
        default="rounds",
        help=(
            "execution model: barrier-stepped rounds (the paper's timeline) "
            "or free-running drifting per-replica timers with no quiescence "
            "barrier (--transport sim only; a usage error otherwise)"
        ),
    )
    kv.add_argument(
        "--tick-jitter",
        type=float,
        default=0.05,
        help="free-running only: timer period skew as a fraction of the interval",
    )
    kv.add_argument(
        "--budget", type=int, default=None, help="anti-entropy bytes per tick per node"
    )
    kv.add_argument(
        "--repair",
        type=int,
        default=None,
        help=(
            "repair interval in ticks: blanket pushes every N ticks, or the "
            "digest-mode coldness threshold (0 disables repair; default 0, "
            "or 4 when --faults or --repair-mode digest is given)"
        ),
    )
    kv.add_argument(
        "--repair-mode",
        choices=("blanket", "digest"),
        default=None,
        help=(
            "full-state pushes on a timer, or divergence-driven digest "
            "probes (default: blanket; --rebalance requires digest)"
        ),
    )
    kv.add_argument(
        "--repair-fanout",
        type=int,
        default=1,
        help="shards repaired/probed per tick",
    )
    kv.add_argument(
        "--recovery",
        choices=_RECOVERY_POLICIES,
        default=None,
        help=(
            "lose-state recovery policy: rebuild purely over the network "
            "(repair), replay the per-shard write-ahead log locally first "
            "(wal), or replay plus immediate verification probes "
            "(wal+repair).  With --faults this selects which strategy rows "
            "the comparison table grows beyond the blanket/digest "
            "baselines (default: all of them)"
        ),
    )
    kv.add_argument(
        "--faults",
        action="store_true",
        help=(
            "run the seeded fault scenario (partition + heal + crash with "
            "disk loss) comparing blanket vs digest repair instead of the "
            "protocol sweep"
        ),
    )
    kv.add_argument(
        "--quorum",
        action="store_true",
        help=(
            "run the quorum-read comparison instead of the protocol sweep: "
            "a load-generating client drives a live process cluster under "
            "r=1 vs majority read quorums and reports latency percentiles "
            "against observed session staleness (always multi-process; "
            "--transport is ignored)"
        ),
    )
    kv.add_argument(
        "--rebalance",
        action="store_true",
        help=(
            "run the live-rebalancing scenario instead of the protocol "
            "sweep: traffic flows while a replica is added and another "
            "decommissioned, every moved shard shipped as a compacted "
            "WAL-segment handoff; reports handoff bytes vs the naive "
            "full-state transfer baseline (default recovery: wal)"
        ),
    )
    kv.add_argument(
        "--algorithms",
        type=lambda text: tuple(part for part in text.split(",") if part),
        default=None,
        help="comma-separated protocol subset",
    )
    kv.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "write a structured JSONL trace of the run to PATH (round "
            "ticks, per-kind sends/deliveries, repair escalations, WAL "
            "and handoff events); render it later with "
            "'repro trace report PATH'"
        ),
    )
    kv.add_argument(
        "--out", type=str, default=None, help="also write the report to this file"
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
            "JSONL trace file (from --trace), or a directory of "
            "per-process trace files (from --transport proc), merged "
            "by round with origin attribution"
        ),
    )

    lint = commands.add_parser(
        "lint",
        help=(
            "run the invariant linter (determinism, event-registry "
            "completeness, async/exception hygiene) over source trees"
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--profile",
        choices=("full", "relaxed"),
        default="full",
        help=(
            "rule profile: full (CI gate on src) or relaxed "
            "(det-rng + broad-except, for tests/ and benchmarks/)"
        ),
    )
    lint.add_argument(
        "--stats",
        action="store_true",
        help=(
            "append a per-rule findings/suppressions table "
            "to the report (text and JSON)"
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


def _kv_config(args: argparse.Namespace) -> KVConfig:
    """The sweep-cell config for one ``repro kv`` invocation.

    ``--transport`` / ``--execution`` / ``--tick-jitter`` become one
    :data:`~repro.driver.Deployment` here; a pair that names no
    deployment (``--execution free`` off the simulator) or a ``--trace``
    file where process clusters need a directory raises ``ValueError``,
    which the caller turns into a usage error.
    """
    deployment = deployment_from_flags(
        args.transport, args.execution, args.tick_jitter
    )
    if (
        deployment is Stepped.PROC
        and args.trace is not None
        and os.path.isfile(args.trace)
    ):
        # Per-process trace files cannot share one JSONL sink; process
        # clusters write a *directory* of them per cell.
        raise ValueError(
            "--transport proc writes a trace directory (one file per "
            f"replica process), but {args.trace!r} is an existing file"
        )
    return KVConfig(
        replicas=args.replicas,
        keys=args.keys,
        rounds=args.rounds,
        ops_per_node=args.ops,
        users=args.users,
        zipf=args.zipf,
        replication=args.replication,
        shards=args.shards,
        seed=args.seed,
        workload=args.workload,
        budget_bytes=args.budget,
        # --faults, --rebalance, and an explicit digest mode are
        # meaningless with repair disabled, so when --repair is
        # *unset* they default to a working interval; an explicit
        # --repair 0 is honored.
        repair_interval=args.repair
        if args.repair is not None
        else (
            4
            if args.faults or args.rebalance or args.repair_mode == "digest"
            else 0
        ),
        # The rebalance scenario is divergence-driven end to end
        # (its handoff warm-path/suspicion machinery expects digest
        # probes), so it defaults the unset flag to digest; an
        # explicit blanket was rejected above.
        repair_mode=args.repair_mode
        if args.repair_mode is not None
        else ("digest" if args.rebalance else "blanket"),
        repair_fanout=args.repair_fanout,
        deployment=deployment,
        # Outside --faults the flag directly sets the store's
        # lose-state policy; the fault comparison instead derives
        # per-row policies from the strategy labels below.
        # --rebalance defaults to wal so handoffs ship log segments.
        recovery=args.recovery
        if args.recovery is not None
        else ("wal" if args.rebalance else "repair"),
        trace=args.trace,
    )


def _run_lint(args: argparse.Namespace, stream) -> int:
    """The ``repro lint`` subcommand; returns a process exit code.

    0 = clean (every finding fixed or suppressed in place with a
    reason), 1 = findings, 2 = usage problems (bad paths).
    """
    from repro.lint import (
        load_project,
        render_json,
        render_text,
        rule_catalogue,
        rules_for_profile,
        run_rules,
    )

    if args.list_rules:
        for rule_id, summary in sorted(rule_catalogue().items()):
            print(f"{rule_id}: {summary}", file=stream)
        return 0
    try:
        project = load_project(args.paths)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    rules = rules_for_profile(args.profile)
    result = run_rules(project, rules)
    render = render_json if args.format == "json" else render_text
    stats_rules = (
        [rule.id for rule in rules] + ["parse-error", "suppression"]
        if args.stats
        else None
    )
    print(render(result, stats_rules=stats_rules), file=stream)
    return 0 if result.clean else 1


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

    if args.command == "lint":
        return _run_lint(args, stream)

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

    if args.command == "kv":
        from repro.experiments import KV_ALGORITHMS

        # The scenarios that replay one inner protocol take the first.
        inner = args.algorithms[0] if args.algorithms else "delta-based-bp-rr"
        if args.quorum:
            if args.faults or args.rebalance:
                print(
                    "repro kv: --quorum is its own scenario; drop --faults/"
                    "--rebalance",
                    file=sys.stderr,
                )
                return 2
            from repro.experiments import QuorumConfig, run_kv_quorum

            config = QuorumConfig(
                # The kv default (16) is sim-scale; an untouched default
                # downshifts to 4 real processes.  Any explicit
                # --replicas value is honored.
                replicas=args.replicas if args.replicas != 16 else 4,
                shards=args.shards,
                replication=args.replication,
                algorithm=inner,
                keys=min(args.keys, 64),
                zipf=args.zipf,
                seed=args.seed,
                recovery=args.recovery or "wal",
                trace=args.trace,
            )
            started = time.perf_counter()
            result = run_kv_quorum(config)
            elapsed = time.perf_counter() - started
            _emit(result.render(), args.out, stream)
            _emit(f"[kv quorum completed in {elapsed:.1f}s]\n", args.out, stream)
            return 0

        algorithms = (
            args.algorithms if args.algorithms is not None else _KV_DEFAULT_ALGORITHMS
        )
        bad = [a for a in algorithms if a not in KV_ALGORITHMS]
        if bad or not algorithms:
            detail = f"unknown algorithms {bad}" if bad else "no algorithms given"
            print(
                f"repro kv: {detail} (choose from: {', '.join(sorted(KV_ALGORITHMS))})",
                file=sys.stderr,
            )
            return 2
        if args.faults and args.algorithms and len(args.algorithms) > 1:
            print(
                "repro kv: --faults compares repair modes for one inner "
                "protocol; pass a single --algorithms entry",
                file=sys.stderr,
            )
            return 2
        if args.rebalance and args.faults:
            print(
                "repro kv: --rebalance and --faults are separate scenarios; "
                "pass one of them",
                file=sys.stderr,
            )
            return 2
        if args.rebalance and args.algorithms and len(args.algorithms) > 1:
            print(
                "repro kv: --rebalance replays one inner protocol; pass a "
                "single --algorithms entry",
                file=sys.stderr,
            )
            return 2
        if args.rebalance and args.repair is not None and args.repair < 1:
            print(
                "repro kv: --rebalance requires repair (handoff gaps "
                "re-converge through it); pass --repair >= 1 or drop "
                "--repair for the default",
                file=sys.stderr,
            )
            return 2
        if args.rebalance and args.repair_mode == "blanket":
            print(
                "repro kv: --rebalance is divergence-driven end to end and "
                "requires --repair-mode digest (or dropping the flag)",
                file=sys.stderr,
            )
            return 2
        try:
            config = _kv_config(args)
        except ValueError as exc:
            print(f"repro kv: {exc}", file=sys.stderr)
            return 2
        started = time.perf_counter()
        if args.rebalance:
            from repro.experiments import run_kv_rebalance

            result = run_kv_rebalance(config, algorithm=inner)
        elif args.faults:
            # Each WAL strategy is compared against the rungs below it
            # on the recovery ladder (so `--recovery wal` rides next to
            # the blanket and digest baselines it must beat); no flag
            # compares the whole ladder.
            cutoff = (
                _RECOVERY_POLICIES.index(args.recovery)
                if args.recovery is not None
                else len(_RECOVERY_POLICIES) - 1
            )
            strategies = tuple(
                label
                for label, (_, policy) in _RECOVERY_STRATEGIES.items()
                if _RECOVERY_POLICIES.index(policy) <= cutoff
            )
            result = run_kv_repair_comparison(config, algorithm=inner, modes=strategies)
        else:
            result = run_kv_sweep(config, algorithms)
        elapsed = time.perf_counter() - started
        _emit(result.render(), args.out, stream)
        _emit(f"[kv completed in {elapsed:.1f}s]\n", args.out, stream)
        return 0

    if args.command == "list":
        width = max(len(name) for name in _RUNNERS)
        for name in sorted(_RUNNERS):
            print(f"{name.ljust(width)}  {_DESCRIPTIONS[name]}", file=stream)
        return 0

    targets = sorted(_RUNNERS) if args.experiment == "all" else [args.experiment]
    for name in targets:
        started = time.perf_counter()
        result = _RUNNERS[name](args)
        elapsed = time.perf_counter() - started
        _emit(result.render(), args.out, stream)
        _emit(f"[{name} completed in {elapsed:.1f}s]\n", args.out, stream)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

"""Compare two revisions on one perf workload, in alternating pairs.

    python benchmarks/ledger.py compare REV_A REV_B --workload W --pairs N [--seed S]

Checks out ``REV_A`` and ``REV_B`` as two detached ``git worktree``s in a
temporary directory and runs the benchmark's contract mode in each::

    python3 benchmarks/perf/run.py --workload W --seed S+i --seconds 35 --trace 0

Pair ``i`` runs both revisions on seed ``S + i``: ``REV_A`` first on even
pairs and ``REV_B`` first on odd ones, so neither side always gets the
warmer machine.  The run length is ``BENCHMARK.json``'s ``run_seconds``.
Nothing is imported from ``benchmarks/perf``: every run is a subprocess
of the revision's own checkout, and the ledger reads only the last line
of its stdout, the contract JSON.

For every end-to-end metric of ``BENCHMARK.json`` it prints ``REV_A``'s
median and Q1–Q3, ``REV_B``'s median, the ratio of medians, the pairs
``REV_B`` wins in the metric's ``better`` direction (a tie counts for
neither side) and every per-pair ratio ``B/A``.  Quartiles are
``statistics.quantiles(n=4)``, the rule the benchmark's own spread check
uses.  The worktrees are removed on the way out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join("benchmarks", "perf", "run.py")


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric as ``BENCHMARK.json`` declares it."""

    name: str
    unit: str
    better: str  # "lower" or "higher"


@dataclass(frozen=True)
class Row:
    """One metric folded over every pair."""

    metric: Metric
    a_median: float
    a_q1: float
    a_q3: float
    b_median: float
    wins: int
    pairs: int
    ratios: Tuple[Optional[float], ...]

    @property
    def ratio(self) -> Optional[float]:
        return _ratio(self.b_median, self.a_median)


def declared() -> Tuple[List[Metric], float]:
    """The end-to-end metrics and the run length ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = [Metric(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    return metrics, float(spec["run_seconds"])


def parse_contract(stdout: str) -> Dict:
    """The contract line (the last line of a run's stdout), parsed."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(Q1, median, Q3)``; one value is its own spread."""
    if len(values) < 2:
        (only,) = values
        return only, only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _ratio(b: float, a: float) -> Optional[float]:
    if a == 0:
        return 1.0 if b == 0 else None
    return b / a


def b_wins(metric: Metric, a: float, b: float) -> bool:
    """True when ``b`` is strictly better than ``a``; a tie is no win."""
    return b < a if metric.better == "lower" else b > a


def fold(pairs: Sequence[Tuple[Dict, Dict]], metrics: Sequence[Metric]) -> List[Row]:
    """Fold ``(contract_a, contract_b)`` pairs into one row per metric.

    A metric missing from either run of a pair (one that does not apply
    to the workload) is skipped for that pair; a metric no pair reports
    gets no row.
    """
    rows = []
    for metric in metrics:
        a_values, b_values = [], []
        for a, b in pairs:
            a_entry, b_entry = a["metrics"].get(metric.name), b["metrics"].get(metric.name)
            if a_entry is None or b_entry is None:
                continue
            a_values.append(float(a_entry["value"]))
            b_values.append(float(b_entry["value"]))
        if not a_values:
            continue
        q1, a_median, q3 = quartiles(a_values)
        rows.append(
            Row(
                metric=metric,
                a_median=a_median,
                a_q1=q1,
                a_q3=q3,
                b_median=statistics.median(b_values),
                wins=sum(b_wins(metric, a, b) for a, b in zip(a_values, b_values)),
                pairs=len(a_values),
                ratios=tuple(_ratio(b, a) for a, b in zip(a_values, b_values)),
            )
        )
    return rows


def _num(value: float) -> str:
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def _times(ratio: Optional[float]) -> str:
    return "n/a" if ratio is None else f"×{ratio:.3f}"


def render(rows: Sequence[Row]) -> str:
    """The comparison table, one line per metric."""
    lines = [
        f"  {'metric':<22}{'unit':<6}{'better':<8}{'A median [Q1–Q3]':<32}"
        f"{'B median':>11}{'B/A':>9}{'wins':>7}  per-pair B/A"
    ]
    for row in rows:
        spread = f"{_num(row.a_median)} [{_num(row.a_q1)}–{_num(row.a_q3)}]"
        per_pair = " ".join("n/a" if r is None else f"{r:.3f}" for r in row.ratios)
        lines.append(
            f"  {row.metric.name:<22}{row.metric.unit:<6}{row.metric.better:<8}{spread:<32}"
            f"{_num(row.b_median):>11}{_times(row.ratio):>9}"
            f"{f'{row.wins}/{row.pairs}':>7}  {per_pair}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Running: worktrees and subprocesses.
# ----------------------------------------------------------------------


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    )
    return done.stdout.strip()


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> Dict:
    """One contract-mode run of ``workload`` from ``checkout``."""
    done = subprocess.run(
        [sys.executable, RUNNER, "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    try:
        return parse_contract(done.stdout)
    except ValueError:
        raise RuntimeError(
            f"{checkout}: run exited {done.returncode} without a contract line\n{done.stderr}"
        ) from None


def compare(rev_a: str, rev_b: str, workload: str, pairs: int, seed: int) -> str:
    metrics, seconds = declared()
    shas = [_git("rev-parse", "--verify", f"{rev}^{{commit}}") for rev in (rev_a, rev_b)]
    scratch = tempfile.mkdtemp(prefix="ledger-")
    checkouts = [os.path.join(scratch, side) for side in ("a", "b")]
    try:
        for checkout, sha in zip(checkouts, shas):
            _git("worktree", "add", "--detach", checkout, sha)
        results: List[Tuple[Dict, Dict]] = []
        for index in range(pairs):
            order = (0, 1) if index % 2 == 0 else (1, 0)
            pair: List[Dict] = [{}, {}]
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed + index, seconds)
            results.append((pair[0], pair[1]))
            print(f"  pair {index + 1}/{pairs} (seed {seed + index}) done", file=sys.stderr)
    finally:
        for checkout in checkouts:
            if os.path.isdir(checkout):
                _git("worktree", "remove", "--force", checkout)
        _git("worktree", "prune")
        shutil.rmtree(scratch, ignore_errors=True)
    header = (
        f"== {workload}: A = {rev_a} ({shas[0][:7]}), B = {rev_b} ({shas[1][:7]}); "
        f"{pairs} alternating pairs, seeds {seed}–{seed + pairs - 1}, --seconds {seconds:g} =="
    )
    health = "  ".join(
        f"{label}: failed ops {sum(r['failed'] for r in runs)}, "
        f"incorrect runs {sum(not r['correct'] for r in runs)}"
        for label, runs in (("A", [a for a, _ in results]), ("B", [b for _, b in results]))
    )
    return "\n".join([header, render(fold(results, metrics)), f"  {health}"])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    cmp = commands.add_parser("compare", help="alternating pairs of two revisions")
    cmp.add_argument("rev_a", metavar="REV_A")
    cmp.add_argument("rev_b", metavar="REV_B")
    cmp.add_argument("--workload", required=True)
    cmp.add_argument("--pairs", type=int, default=10)
    cmp.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    print(compare(args.rev_a, args.rev_b, args.workload, args.pairs, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())

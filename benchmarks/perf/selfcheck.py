"""Does the benchmark agree with itself?

Runs two sets of ``--reps`` untraced runs per workload on the same
checkout — run ``i`` of both sets uses seed ``--seed + i`` — and holds
every end-to-end metric the workload has, driver-gated or reported-only,
to two rules:

* the **medians** of the two sets agree within the metric's bound, in
  either direction (a second set that is much *better* is disagreement
  too): exactly for the byte metrics on the in-process workloads, whose
  seeds replay the same bytes, and within :data:`SERVE_BYTES_BOUND` on
  ``serve-*``;
* for the driver-gated metrics, the **spread** of each set
  (interquartile distance as a share of the median,
  ``statistics.quantiles(n=4)``) stays within the bound; ``setup_s`` is
  exempt, as it is for the driver.  The spread of every metric is printed.

Exits 1 on any violation.  ``--reps 10`` is the driver's own procedure.

    PYTHONPATH=src python benchmarks/perf/selfcheck.py [--reps N] [--workload W]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import declared  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

#: Metrics that are pure functions of the seed on the in-process
#: workloads: two sets must report identical medians.
EXACT = ("wire_bytes_per_update", "mem_bytes_avg", "repair_bytes", "tx_ratio_vs_state")
#: ... and how far they may differ on ``serve-*``, where the bytes a
#: round ships depend on when the controller's poll catches the replicas.
SERVE_BYTES_BOUND = 0.02

GATED = {metric.name for metric in declared.END_TO_END}


def check_workload(workload: str, first: Sequence[Dict], second: Sequence[Dict]) -> List[str]:
    """Print one workload's table; return its violations."""
    violations: List[str] = []
    print(f"\n== {workload}: 2 sets of {len(first)} run(s) ==")
    print(f"  {'metric':<24}{'bound':>7}{'median A':>14}{'spread A':>10}"
          f"{'median B':>14}{'spread B':>10}{'differ by':>12}")
    for metric in declared.END_TO_END + declared.REPORTED:
        if not declared.applies(metric, workload):
            continue
        if not all(metric.name in report["e2e"] for runs in (first, second) for report in runs):
            continue  # a p99 with fewer than ten samples beyond it is not a metric
        columns = [[report["e2e"][metric.name] for report in runs] for runs in (first, second)]
        medians = [statistics.median(values) for values in columns]
        spreads = [stats.quartile_spread(values) for values in columns]
        bound = metric.bound
        if metric.name in EXACT:
            bound = 0.0 if workload in declared.IN_PROCESS else SERVE_BYTES_BOUND
        label = "exact" if bound == 0 else f"{bound:.1%}"
        row = f"  {metric.name:<24}{label:>7}"
        for median, spread in zip(medians, spreads):
            row += f"{median:>14.6g}{spread:>9.2%} "
        differ = stats.differs_by(medians[0], medians[1])
        row += f"{differ:>11.2%}"
        flags = []
        if metric.name in GATED and metric.name != "setup_s" and max(spreads) > metric.bound:
            flags.append(f"spread {max(spreads):.2%} > bound {metric.bound:.1%}")
        if differ > bound:
            flags.append(f"medians differ by {differ:.2%} > {label}")
        if flags:
            row += "  <-- " + "; ".join(flags)
            violations += [f"{workload} {metric.name}: {flag}" for flag in flags]
        print(row)
    incorrect = sum(1 for runs in (first, second) for report in runs if not report["correct"])
    if incorrect:
        violations.append(f"{workload}: {incorrect} run(s) failed their oracle")
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="restrict to these workloads (repeatable)")
    parser.add_argument("--reps", type=int, default=3, help="runs per set (at least 2)")
    parser.add_argument("--seed", type=int, default=1, help="seed of run 0 of both sets")
    parser.add_argument("--seconds", type=float, default=float(declared.RUN_SECONDS))
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error("--reps must be at least 2: a spread needs two runs")
    violations: List[str] = []
    for workload in args.workload or declared.WORKLOAD_NAMES:
        first, second = (
            [run.run_child(workload, args.seed + rep, args.seconds) for rep in range(args.reps)]
            for _ in range(2)
        )
        violations += check_workload(workload, first, second)
    if violations:
        print("\nselfcheck FAILED:")
        for line in violations:
            print("  " + line)
        return 1
    print("\nselfcheck passed: every metric within its own bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())

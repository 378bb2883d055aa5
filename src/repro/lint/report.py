"""Reporters: human-readable text and machine-readable JSON.

Both render the same view — live findings (the gate), then the count
of findings suppressed in place — so a CI log and a tooling consumer
see the identical verdict.  With ``stats_rules`` (the ``--stats``
flag), both append a per-rule table of finding/suppression counts,
with zero rows for every rule in the active profile so coverage —
including the exact number of active reasoned suppressions per rule —
is visible at a glance in the CI log.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.lint.engine import Finding, LintResult


def _format_finding(finding: Finding) -> str:
    return (
        f"{finding.path}:{finding.line}:{finding.col + 1}: "
        f"{finding.severity}[{finding.rule}] {finding.message}"
    )


def rule_stats(
    result: LintResult, stats_rules: Sequence[str]
) -> Dict[str, Dict[str, int]]:
    """Per-rule counts over the pass: findings and suppressed.

    Every rule in ``stats_rules`` gets a row (zero counts included);
    rules that produced output without being listed (the engine's
    ``parse-error``/``suppression``) get rows appended.
    """
    stats: Dict[str, Dict[str, int]] = {
        rule: {"findings": 0, "suppressed": 0} for rule in stats_rules
    }
    for bucket, findings in (
        ("findings", result.findings),
        ("suppressed", result.suppressed),
    ):
        for finding in findings:
            row = stats.setdefault(
                finding.rule, {"findings": 0, "suppressed": 0}
            )
            row[bucket] += 1
    return stats


def _stats_table(stats: Dict[str, Dict[str, int]]) -> List[str]:
    width = max(len("rule"), *(len(rule) for rule in stats))
    header = f"{'rule':<{width}}  findings  suppressed"
    lines = ["", "per-rule stats:", header, "-" * len(header)]
    for rule in sorted(stats):
        row = stats[rule]
        lines.append(
            f"{rule:<{width}}  {row['findings']:>8}  "
            f"{row['suppressed']:>10}"
        )
    return lines


def render_text(
    result: LintResult, stats_rules: Optional[Sequence[str]] = None
) -> str:
    """The terminal/CI report; one line per finding plus a summary."""
    findings = result.findings
    lines: List[str] = [_format_finding(f) for f in findings]
    summary = (
        f"{len(findings)} finding{'s' if len(findings) != 1 else ''} "
        f"in {result.files} file{'s' if result.files != 1 else ''}"
    )
    if result.suppressed:
        summary += f" ({len(result.suppressed)} suppressed in place)"
    lines.append(summary)
    if stats_rules is not None:
        lines.extend(_stats_table(rule_stats(result, stats_rules)))
    return "\n".join(lines)


def render_json(
    result: LintResult, stats_rules: Optional[Sequence[str]] = None
) -> str:
    """Stable-keyed JSON for tooling; findings sorted like the text."""

    def encode(finding: Finding) -> dict:
        return {
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "severity": finding.severity,
            "message": finding.message,
        }

    payload = {
        "findings": [encode(f) for f in result.findings],
        "suppressed": [encode(f) for f in result.suppressed],
        "summary": {
            "files": result.files,
            "findings": len(result.findings),
            "suppressed": len(result.suppressed),
        },
    }
    if stats_rules is not None:
        payload["stats"] = rule_stats(result, stats_rules)
    return json.dumps(payload, indent=2, sort_keys=True)

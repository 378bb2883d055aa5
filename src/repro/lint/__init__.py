"""Static analysis for the repository's load-bearing conventions.

The system's correctness rests on invariants no runtime test states
directly: byte-identical sim fingerprints require that the
deterministic core never reads wall clocks or unseeded RNGs, every
traced event type must be catalogued, and the frozen
:class:`~repro.sync.protocol.Message` may be mutated only at sanctioned
memo sites.  (Conventions a structure can enforce are not rules: the
wire-kind and verb registries are complete by construction.)  ``repro.lint`` turns those conventions into checked rules:
an AST-visitor rule engine (:mod:`repro.lint.engine`), the rule
catalogue (:mod:`repro.lint.rules`), a content-fingerprinted baseline
for accepted legacy findings (:mod:`repro.lint.baseline`), and text /
JSON reporters (:mod:`repro.lint.report`).  ``python -m repro lint src``
is the CI gate; ``# repro: lint-ok[rule-id] reason`` suppresses one
finding in place.
"""

from repro.lint.baseline import (
    Baseline,
    finding_fingerprint,
    read_baseline,
    write_baseline,
)
from repro.lint.engine import (
    Finding,
    LintResult,
    Module,
    Project,
    Rule,
    Suppression,
    lint_paths,
    load_project,
    run_rules,
)
from repro.lint.callgraph import (
    CallGraph,
    build_call_graph,
    project_analysis,
    render_dot,
)
from repro.lint.flow import Cfg, build_cfg, solve_forward
from repro.lint.report import render_json, render_text, rule_stats
from repro.lint.rules import (
    ALL_RULES,
    PROFILES,
    rule_catalogue,
    rules_for_profile,
)

__all__ = [
    "ALL_RULES",
    "Baseline",
    "CallGraph",
    "Cfg",
    "Finding",
    "LintResult",
    "Module",
    "PROFILES",
    "Project",
    "Rule",
    "Suppression",
    "build_call_graph",
    "build_cfg",
    "finding_fingerprint",
    "lint_paths",
    "load_project",
    "project_analysis",
    "read_baseline",
    "render_dot",
    "render_json",
    "render_text",
    "rule_catalogue",
    "rule_stats",
    "rules_for_profile",
    "run_rules",
    "solve_forward",
    "write_baseline",
]

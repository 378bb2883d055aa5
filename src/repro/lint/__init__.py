"""Static analysis for the repository's load-bearing conventions.

The system's correctness rests on invariants no runtime test states
directly: the deterministic core never reads wall clocks or unseeded
RNGs, every traced event type must be catalogued, coroutines never
block the event loop, and a broad ``except`` never swallows a failure
unseen.  (Conventions a structure can enforce are not rules: the
wire-kind and verb registries are complete by construction, every value
type is frozen by its base class, and the pinned sim fingerprints catch
any wall-clock value that reaches simulation output.)  ``repro.lint``
turns those conventions into checked rules: an AST-visitor rule engine
(:mod:`repro.lint.engine`), the rule catalogue of five single-pass
lexical rules (:mod:`repro.lint.rules`), and text / JSON reporters
(:mod:`repro.lint.report`).  ``python -m repro lint src`` is the CI
gate; ``# repro: lint-ok[rule-id] reason`` accepts one finding in
place, and is the only way to accept one.
"""

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
from repro.lint.report import render_json, render_text, rule_stats
from repro.lint.rules import (
    ALL_RULES,
    PROFILES,
    rule_catalogue,
    rules_for_profile,
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintResult",
    "Module",
    "PROFILES",
    "Project",
    "Rule",
    "Suppression",
    "lint_paths",
    "load_project",
    "render_json",
    "render_text",
    "rule_catalogue",
    "rule_stats",
    "rules_for_profile",
    "run_rules",
]

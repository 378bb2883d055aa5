"""Static analysis for the repository's load-bearing conventions.

The system's correctness rests on invariants no runtime test states
directly: the deterministic core never reads wall clocks or unseeded
RNGs, every traced event type must be catalogued, the frozen
:class:`~repro.sync.protocol.Message` may be mutated only at sanctioned
memo sites, coroutines never block the event loop, and an acquired
lock or handle is released on every path.  (Conventions a structure
can enforce are not rules: the wire-kind and verb registries are
complete by construction, and the pinned sim fingerprints catch any
wall-clock value that reaches simulation output.)  ``repro.lint``
turns those conventions into checked rules: an AST-visitor rule engine
(:mod:`repro.lint.engine`), the rule catalogue
(:mod:`repro.lint.rules`), a per-function CFG and dataflow solver for
the typestate rule (:mod:`repro.lint.flow`), and text / JSON reporters
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
    "Cfg",
    "Finding",
    "LintResult",
    "Module",
    "PROFILES",
    "Project",
    "Rule",
    "Suppression",
    "build_cfg",
    "lint_paths",
    "load_project",
    "render_json",
    "render_text",
    "rule_catalogue",
    "rule_stats",
    "rules_for_profile",
    "run_rules",
    "solve_forward",
]

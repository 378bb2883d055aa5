"""The rule engine: modules, projects, suppressions, and the runner.

A lint pass parses every target file once into a :class:`Module`
(source, AST, and the ``# repro: lint-ok[...]`` suppressions found by
the tokenizer), bundles them into a :class:`Project` so cross-file
rules can see registries and their use sites together, runs every
:class:`Rule` over the project, and then applies suppressions.  The
engine itself contributes two rule ids: ``parse-error`` for files the
compiler rejects and ``suppression`` for malformed, unknown-rule, or
unused ``lint-ok`` comments — a suppression that stops matching
anything is stale armour and gets reported like any other finding.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Matches ``repro: lint-ok[rule-a, rule-b] why this is sanctioned``
#: after a ``#``.  The reason is mandatory: a suppression without one
#: is itself a finding, so every sanctioned site documents itself.
SUPPRESSION_PATTERN = re.compile(
    r"#\s*repro:\s*lint-ok\[(?P<rules>[^\]]*)\]\s*(?P<reason>.*)$"
)

#: Rule ids emitted by the engine itself (always valid suppression
#: targets even though they are not in the rule set).
ENGINE_RULE_IDS = ("parse-error", "suppression")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class Suppression:
    """One parsed ``lint-ok`` comment.

    ``covers`` is the set of physical lines the suppression shields: the
    comment's own line, plus — when the comment stands alone — the next
    line, so multi-line calls can carry the pragma just above them.
    """

    path: str
    line: int
    rules: Tuple[str, ...]
    reason: str
    covers: Tuple[int, ...]

    def shields(self, finding: Finding) -> bool:
        return finding.line in self.covers and finding.rule in self.rules


@dataclass
class Module:
    """One parsed source file."""

    path: str
    source: str
    tree: ast.Module
    suppressions: List[Suppression] = field(default_factory=list)


@dataclass
class Project:
    """Every module of one lint pass, plus files that failed to parse."""

    modules: List[Module]
    parse_failures: List[Finding] = field(default_factory=list)

    def assignments(self, name: str) -> Iterator[Tuple[Module, ast.Assign]]:
        """Module-level ``name = ...`` assignments across the project."""
        for module in self.modules:
            for node in module.tree.body:
                if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == name
                    for target in node.targets
                ):
                    yield module, node


class Rule:
    """Base class for one invariant check.

    Subclasses set ``id`` (the suppression key), ``severity``,
    and a one-line ``summary`` for ``lint --list-rules``, and implement
    :meth:`check` over the whole project — single-file rules just loop
    ``project.modules``.
    """

    id: str = ""
    severity: str = "error"
    summary: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: Module, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=self.severity,
        )


@dataclass
class LintResult:
    """What one pass produced.

    ``findings`` are the live ones; ``suppressed`` kept for reporting
    (the text reporter prints counts, the JSON reporter the full list).
    """

    findings: List[Finding]
    suppressed: List[Finding]
    files: int

    @property
    def clean(self) -> bool:
        return not self.findings


def parse_suppressions(path: str, source: str) -> List[Suppression]:
    """Extract ``lint-ok`` comments with the tokenizer.

    Tokenizing (rather than regex over raw lines) keeps ``#`` inside
    string literals from being misread as comments.  Unreadable files
    are the parser's problem, not ours: tokenizer errors yield no
    suppressions and the compile step reports the file.
    """
    suppressions: List[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = SUPPRESSION_PATTERN.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        rules = tuple(
            part.strip()
            for part in match.group("rules").split(",")
            if part.strip()
        )
        standalone = token.line[: token.start[1]].strip() == ""
        covers = (line, line + 1) if standalone else (line,)
        suppressions.append(
            Suppression(
                path=path,
                line=line,
                rules=rules,
                reason=match.group("reason").strip(),
                covers=covers,
            )
        )
    return suppressions


def load_module(path: str, source: Optional[str] = None) -> Module:
    """Parse one file; raises ``SyntaxError`` on unparseable source."""
    if source is None:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    tree = ast.parse(source, filename=path)
    return Module(
        path=path,
        source=source,
        tree=tree,
        suppressions=parse_suppressions(path, source),
    )


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.append(os.path.join(root, name))
        elif path.endswith(".py") or os.path.isfile(path):
            found.append(path)
        else:
            raise FileNotFoundError(f"lint target {path!r} does not exist")
    # De-duplicate while preserving order (a file passed twice, or both
    # directly and via its directory, is linted once).
    seen: Dict[str, None] = {}
    for path in found:
        seen.setdefault(os.path.normpath(path), None)
    return list(seen)


def load_project(paths: Sequence[str]) -> Project:
    modules: List[Module] = []
    failures: List[Finding] = []
    for path in discover_files(paths):
        try:
            modules.append(load_module(path))
        except SyntaxError as exc:
            failures.append(
                Finding(
                    rule="parse-error",
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
        except (OSError, UnicodeDecodeError) as exc:
            failures.append(
                Finding(
                    rule="parse-error",
                    path=path,
                    line=1,
                    col=0,
                    message=f"file cannot be read: {exc}",
                )
            )
    return Project(modules=modules, parse_failures=failures)


def _suppression_findings(
    project: Project,
    known_rules: Iterable[str],
    raw_findings: Sequence[Finding],
) -> List[Finding]:
    """The engine's own rule: every ``lint-ok`` must be well-formed
    (non-empty rule list, known ids, a stated reason) and must still
    shield at least one finding — otherwise it is stale and reported.
    """
    known = set(known_rules) | set(ENGINE_RULE_IDS)
    findings: List[Finding] = []
    for module in project.modules:
        for suppression in module.suppressions:
            problems: List[str] = []
            if not suppression.rules:
                problems.append("names no rule ids")
            unknown = [r for r in suppression.rules if r not in known]
            if unknown:
                problems.append(f"names unknown rule(s) {', '.join(unknown)}")
            if not suppression.reason:
                problems.append("carries no reason")
            if problems:
                findings.append(
                    Finding(
                        rule="suppression",
                        path=module.path,
                        line=suppression.line,
                        col=0,
                        message=(
                            "malformed lint-ok: " + "; ".join(problems) +
                            " (syntax: # repro: lint-ok[rule-id] reason)"
                        ),
                    )
                )
                continue
            if not any(suppression.shields(f) for f in raw_findings):
                findings.append(
                    Finding(
                        rule="suppression",
                        path=module.path,
                        line=suppression.line,
                        col=0,
                        message=(
                            "unused lint-ok["
                            + ", ".join(suppression.rules)
                            + "]: no finding on the covered line(s); "
                            "delete the stale suppression"
                        ),
                        severity="warning",
                    )
                )
    return findings


def run_rules(project: Project, rules: Sequence[Rule]) -> LintResult:
    """Run every rule, then apply suppressions.

    Suppressions shield rule findings; ``suppression`` findings (stale
    or malformed pragmas) and ``parse-error`` findings cannot be
    suppressed in place — they indicate the armour itself is broken.
    """
    raw: List[Finding] = []
    for rule in rules:
        raw.extend(rule.check(project))
    suppressions = [
        s for module in project.modules for s in module.suppressions
    ]
    live: List[Finding] = []
    shielded: List[Finding] = []
    for finding in raw:
        if any(s.path == finding.path and s.shields(finding) for s in suppressions):
            shielded.append(finding)
        else:
            live.append(finding)
    live.extend(_suppression_findings(project, (r.id for r in rules), raw))
    live.extend(project.parse_failures)
    live.sort(key=Finding.sort_key)
    shielded.sort(key=Finding.sort_key)
    return LintResult(
        findings=live,
        suppressed=shielded,
        files=len(project.modules) + len(project.parse_failures),
    )


def lint_paths(paths: Sequence[str], rules: Sequence[Rule]) -> LintResult:
    """Convenience: discover, parse, and check in one call."""
    return run_rules(load_project(paths), rules)

"""Engine mechanics: suppressions, baseline round-trips, reporters, CLI.

The golden rule corpus lives in ``test_lint_rules.py``; this file pins
the machinery around the rules — the ``lint-ok`` grammar, the
content-fingerprinted baseline (including its stability under line
drift), both reporters, the exit-code contract of ``repro lint``, and
the repository's own lint-clean status with its exact sanctioned
suppression set.
"""

import json
import os

import pytest

from repro.cli import main
from repro.lint import (
    ALL_RULES,
    finding_fingerprint,
    lint_paths,
    load_project,
    read_baseline,
    render_json,
    render_text,
    run_rules,
    write_baseline,
)
from repro.lint.engine import (
    Finding,
    Module,
    Project,
    discover_files,
    load_module,
    parse_suppressions,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: A snippet with one finding per line of interest: a global-RNG draw.
VIOLATION = "import random\n\nx = random.random()\n"


def lint_sources(sources, rules=None):
    """Lint a {path: source} mapping without touching disk."""
    project = Project(
        modules=[load_module(path, text) for path, text in sources.items()]
    )
    return run_rules(project, ALL_RULES() if rules is None else rules)


class TestSuppressionParsing:
    def test_inline_comment_covers_its_line(self):
        source = "import random\nx = random.random()  # repro: lint-ok[det-rng] corpus fixture\n"
        (suppression,) = parse_suppressions("mod.py", source)
        assert suppression.rules == ("det-rng",)
        assert suppression.reason == "corpus fixture"
        assert suppression.covers == (2,)

    def test_standalone_comment_also_covers_next_line(self):
        source = (
            "import random\n"
            "# repro: lint-ok[det-rng] corpus fixture\n"
            "x = random.random()\n"
        )
        (suppression,) = parse_suppressions("mod.py", source)
        assert suppression.covers == (2, 3)
        result = lint_sources({"mod.py": source})
        assert result.clean
        assert [f.rule for f in result.suppressed] == ["det-rng"]

    def test_multiple_rule_ids_one_comment(self):
        source = "# repro: lint-ok[det-rng, det-clock] fixture\n"
        (suppression,) = parse_suppressions("mod.py", source)
        assert suppression.rules == ("det-rng", "det-clock")

    def test_hash_inside_string_is_not_a_suppression(self):
        source = 'text = "# repro: lint-ok[det-rng] not a comment"\n'
        assert parse_suppressions("mod.py", source) == []

    def test_missing_reason_is_a_finding(self):
        source = "import random\nx = random.random()  # repro: lint-ok[det-rng]\n"
        result = lint_sources({"mod.py": source})
        rules = {f.rule for f in result.findings}
        assert "suppression" in rules
        message = next(
            f.message for f in result.findings if f.rule == "suppression"
        )
        assert "no reason" in message

    def test_unknown_rule_id_is_a_finding(self):
        source = "x = 1  # repro: lint-ok[no-such-rule] reason\n"
        result = lint_sources({"mod.py": source})
        assert any(
            f.rule == "suppression" and "unknown rule" in f.message
            for f in result.findings
        )

    def test_unused_suppression_is_a_warning_finding(self):
        source = "x = 1  # repro: lint-ok[det-rng] nothing here\n"
        result = lint_sources({"mod.py": source})
        (finding,) = [f for f in result.findings if f.rule == "suppression"]
        assert finding.severity == "warning"
        assert "unused" in finding.message

    def test_used_suppression_is_not_reported_unused(self):
        source = "import random\nx = random.random()  # repro: lint-ok[det-rng] fixture\n"
        result = lint_sources({"mod.py": source})
        assert result.clean

    def test_suppression_shields_only_named_rules(self):
        # det-clock suppression does not shield the det-rng finding.
        source = (
            "import random\n"
            "x = random.random()  # repro: lint-ok[det-clock] wrong rule\n"
        )
        result = lint_sources({"repro/sim/mod.py": source})
        assert any(f.rule == "det-rng" for f in result.findings)


class TestParseErrors:
    def test_unparseable_file_is_reported_not_fatal(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        result = lint_paths([str(tmp_path)], ALL_RULES())
        (finding,) = [f for f in result.findings if f.rule == "parse-error"]
        assert finding.path == str(bad)
        assert result.files == 2


class TestDiscovery:
    def test_duplicate_targets_linted_once(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(VIOLATION)
        result = lint_paths(
            [str(target), str(tmp_path), str(target)], ALL_RULES()
        )
        assert result.files == 1
        assert len(result.findings) == 1

    def test_hidden_and_pycache_dirs_skipped(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text(VIOLATION)
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "junk.py").write_text(VIOLATION)
        result = lint_paths([str(tmp_path)], ALL_RULES())
        assert result.files == 0

    def test_missing_target_raises(self):
        with pytest.raises(FileNotFoundError):
            discover_files(["no/such/path"])


class TestBaseline:
    def _project_with_violation(self, tmp_path, prefix=""):
        target = tmp_path / "mod.py"
        target.write_text(prefix + VIOLATION)
        project = load_project([str(tmp_path)])
        return target, project

    def test_round_trip_accepts_findings(self, tmp_path):
        _, project = self._project_with_violation(tmp_path)
        result = run_rules(project, ALL_RULES())
        assert result.findings
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(baseline_path, result.findings, project)
        baseline = read_baseline(baseline_path)
        new, baselined, stale = baseline.split(result.findings, project)
        assert new == []
        assert len(baselined) == len(result.findings)
        assert stale == []

    def test_fingerprint_survives_line_drift(self, tmp_path):
        target, project = self._project_with_violation(tmp_path)
        result = run_rules(project, ALL_RULES())
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(baseline_path, result.findings, project)
        # Insert lines above the violation: the line number moves, the
        # content fingerprint must not.
        target.write_text("# a comment\n# another\n" + VIOLATION)
        drifted_project = load_project([str(tmp_path)])
        drifted = run_rules(drifted_project, ALL_RULES())
        assert drifted.findings[0].line != result.findings[0].line
        baseline = read_baseline(baseline_path)
        new, baselined, stale = baseline.split(
            drifted.findings, drifted_project
        )
        assert new == []
        assert len(baselined) == len(drifted.findings)

    def test_fixed_finding_reported_stale(self, tmp_path):
        target, project = self._project_with_violation(tmp_path)
        result = run_rules(project, ALL_RULES())
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(baseline_path, result.findings, project)
        target.write_text("x = 1\n")
        clean_project = load_project([str(tmp_path)])
        clean = run_rules(clean_project, ALL_RULES())
        baseline = read_baseline(baseline_path)
        new, baselined, stale = baseline.split(clean.findings, clean_project)
        assert new == [] and baselined == []
        assert len(stale) == len(result.findings)

    def test_missing_baseline_file_is_empty(self, tmp_path):
        baseline = read_baseline(str(tmp_path / "nope.json"))
        assert baseline.empty

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a baseline"}')
        with pytest.raises(ValueError):
            read_baseline(str(path))

    def test_fingerprint_depends_on_rule_path_and_content(self):
        finding = Finding(
            rule="det-rng", path="a.py", line=3, col=0, message="m"
        )
        base = finding_fingerprint(finding, "x = random.random()")
        assert base != finding_fingerprint(finding, "y = random.random()")
        other_rule = Finding(
            rule="det-clock", path="a.py", line=3, col=0, message="m"
        )
        assert base != finding_fingerprint(other_rule, "x = random.random()")
        # Line numbers are deliberately not part of the key.
        moved = Finding(
            rule="det-rng", path="a.py", line=99, col=0, message="m"
        )
        assert base == finding_fingerprint(moved, "x = random.random()")


class TestReporters:
    def _result(self):
        return lint_sources({"mod.py": VIOLATION})

    def test_text_report_lists_findings_and_summary(self):
        text = render_text(self._result())
        assert "mod.py:3:" in text
        assert "error[det-rng]" in text
        assert "1 finding in 1 file" in text

    def test_text_report_counts_baselined_and_stale(self):
        result = self._result()
        text = render_text(
            result,
            baselined=result.findings,
            stale_baseline=["deadbeef"],
            new_findings=[],
        )
        assert "0 findings" in text
        assert "1 baselined" in text
        assert "stale baseline entry" in text

    def test_json_report_shape(self):
        payload = json.loads(render_json(self._result()))
        assert payload["summary"]["findings"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "det-rng"
        assert finding["path"] == "mod.py"
        assert finding["line"] == 3
        assert payload["baselined"] == []
        assert payload["stale_baseline"] == []


class TestCli:
    def test_lint_src_is_clean(self, capsys):
        exit_code = main(["lint", SRC])
        assert exit_code == 0
        assert "0 findings" in capsys.readouterr().out

    def test_seeded_violation_fails(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION)
        exit_code = main(
            ["lint", str(tmp_path), "--baseline", str(tmp_path / "b.json")]
        )
        assert exit_code == 1
        assert "det-rng" in capsys.readouterr().out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION)
        baseline = str(tmp_path / "baseline.json")
        assert (
            main(
                [
                    "lint",
                    str(tmp_path),
                    "--baseline",
                    baseline,
                    "--write-baseline",
                ]
            )
            == 0
        )
        assert os.path.exists(baseline)
        assert main(["lint", str(tmp_path), "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out
        # A *new* violation still gates red over the baseline.
        (tmp_path / "worse.py").write_text(VIOLATION)
        assert main(["lint", str(tmp_path), "--baseline", baseline]) == 1

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION)
        exit_code = main(
            [
                "lint",
                str(tmp_path),
                "--format",
                "json",
                "--baseline",
                str(tmp_path / "b.json"),
            ]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "det-rng",
            "det-clock",
            "det-taint",
            "event-registry",
            "frozen-mutation",
            "async-blocking-transitive",
            "resource-typestate",
            "broad-except",
        ):
            assert rule_id in out
        assert len(out.strip().splitlines()) == 8

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "no/such/tree"]) == 2

    def test_malformed_baseline_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert (
            main(["lint", str(tmp_path), "--baseline", str(bad)]) == 2
        )


#: A snippet whose only finding is interprocedural: an ``async def``
#: body that blocks the event loop (the chain of length one).
ASYNC_VIOLATION = "import time\n\nasync def handler():\n    time.sleep(1)\n"


class TestProfilesStatsGraph:
    """PR 10 CLI surface: ``--profile``, ``--stats``, ``--graph``."""

    def test_relaxed_profile_skips_interprocedural_rules(self, tmp_path):
        (tmp_path / "mod.py").write_text(ASYNC_VIOLATION)
        assert main(["lint", str(tmp_path)]) == 1
        assert main(["lint", str(tmp_path), "--profile", "relaxed"]) == 0

    def test_relaxed_profile_still_guards_rng(self, tmp_path):
        (tmp_path / "mod.py").write_text(VIOLATION)
        assert main(["lint", str(tmp_path), "--profile", "relaxed"]) == 1

    def test_stats_table_in_text_output(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(VIOLATION)
        (tmp_path / "ok.py").write_text(
            "import random\n"
            "y = random.random()  # repro: lint-ok[det-rng] fixture\n"
        )
        main(["lint", str(tmp_path), "--stats"])
        out = capsys.readouterr().out
        assert "rule" in out and "findings" in out and "suppressed" in out
        # det-rng: one live finding, one active suppression.
        (line,) = [l for l in out.splitlines() if l.strip().startswith("det-rng")]
        assert line.split()[1:3] == ["1", "1"]
        # Zero rows are present too: every active rule is accounted for.
        assert any(
            l.strip().startswith("broad-except") for l in out.splitlines()
        )

    def test_stats_key_in_json_output(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(VIOLATION)
        main(["lint", str(tmp_path), "--stats", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["det-rng"]["findings"] == 1
        assert payload["stats"]["det-rng"]["suppressed"] == 0
        assert "broad-except" in payload["stats"]

    def test_no_stats_flag_no_stats_key(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        main(["lint", str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert "stats" not in payload

    def test_graph_exports_dot(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "def callee():\n    return 1\n\ndef caller():\n    return callee()\n"
        )
        dot = tmp_path / "graph.dot"
        assert main(["lint", str(tmp_path), "--graph", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("digraph")
        assert "caller" in text and "callee" in text
        assert "->" in text


class TestRepositoryStatus:
    """The repo's own lint verdict, pinned.

    These are the acceptance criteria of the linter PR itself: a clean
    tree with an *empty* checked-in baseline, and a closed allowlist of
    sanctioned ``frozen-mutation`` memo sites.  A new suppression
    anywhere in ``src/`` must be added here deliberately.
    """

    def test_checked_in_baseline_is_empty(self):
        baseline = read_baseline(
            os.path.join(REPO_ROOT, "lint-baseline.json")
        )
        assert baseline.empty

    def test_sanctioned_suppressions_are_exactly_the_memo_sites(self):
        result = lint_paths([SRC], ALL_RULES())
        assert result.clean
        sites = sorted(
            (
                os.path.relpath(f.path, REPO_ROOT).replace(os.sep, "/"),
                f.rule,
            )
            for f in result.suppressed
        )
        assert sites == [
            ("src/repro/causal/dots.py", "frozen-mutation"),
            ("src/repro/codec.py", "frozen-mutation"),
            # One site: units, bytes and lineage share one ``_size`` memo.
            ("src/repro/lattice/map_lattice.py", "frozen-mutation"),
            ("src/repro/lattice/primitives.py", "frozen-mutation"),
            ("src/repro/lattice/set_lattice.py", "frozen-mutation"),
            # PR 10 interprocedural rules: the serving stack touches
            # real time and real locks by design, at exactly these
            # two sanctioned sites.
            ("src/repro/net/tcp.py", "det-taint"),
            ("src/repro/serve/replica.py", "async-blocking-transitive"),
        ]

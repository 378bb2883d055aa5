"""Engine mechanics: suppressions, reporters, CLI.

The golden rule corpus lives in ``test_lint_rules.py``; this file pins
the machinery around the rules — the ``lint-ok`` grammar (the only way
to accept a finding), both reporters, the exit-code contract of
``repro lint``, and the repository's own lint-clean status with no
suppression at all.
"""

import json
import os

import pytest

from repro.cli import main
from repro.lint import (
    ALL_RULES,
    lint_paths,
    render_json,
    render_text,
    run_rules,
)
from repro.lint.engine import (
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

    def test_async_blocking_accepted_in_place(self):
        source = (
            "import fcntl\n"
            "async def stop(fh):\n"
            "    fcntl.flock(fh, fcntl.LOCK_UN)  # repro: lint-ok[async-blocking] unlock never waits\n"
        )
        result = lint_sources({"repro/serve/replica.py": source})
        assert result.clean
        assert [f.rule for f in result.suppressed] == ["async-blocking"]

    @pytest.mark.parametrize("retired", ["frozen-mutation", "resource-typestate"])
    def test_suppression_naming_a_retired_rule_is_unknown(self, retired):
        source = f"x = 1  # repro: lint-ok[{retired}] sanctioned memo\n"
        (finding,) = lint_sources({"mod.py": source}).findings
        assert finding.rule == "suppression"
        assert f"unknown rule(s) {retired}" in finding.message


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


class TestReporters:
    def _result(self):
        return lint_sources({"mod.py": VIOLATION})

    def test_text_report_lists_findings_and_summary(self):
        text = render_text(self._result())
        assert "mod.py:3:" in text
        assert "error[det-rng]" in text
        assert "1 finding in 1 file" in text

    def test_text_report_counts_suppressed(self):
        source = (
            "import random\n"
            "x = random.random()  # repro: lint-ok[det-rng] fixture\n"
        )
        text = render_text(lint_sources({"mod.py": source}))
        assert "0 findings in 1 file (1 suppressed in place)" in text

    def test_json_report_shape(self):
        payload = json.loads(render_json(self._result()))
        assert payload["summary"]["findings"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "det-rng"
        assert finding["path"] == "mod.py"
        assert finding["line"] == 3
        assert payload["suppressed"] == []
        assert set(payload) == {"findings", "suppressed", "summary"}


class TestCli:
    def test_lint_src_is_clean(self, capsys):
        exit_code = main(["lint", SRC])
        assert exit_code == 0
        assert "0 findings" in capsys.readouterr().out

    def test_seeded_violation_fails(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION)
        exit_code = main(["lint", str(tmp_path)])
        assert exit_code == 1
        assert "det-rng" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION)
        exit_code = main(["lint", str(tmp_path), "--format", "json"])
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split(":")[0] for line in out.strip().splitlines()]
        assert listed == sorted(
            ["det-rng", "det-clock", "event-registry", "async-blocking", "broad-except"]
        )

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "no/such/tree"]) == 2

    @pytest.mark.parametrize(
        "option", ["--baseline=b.json", "--write-baseline", "--graph=g.dot"]
    )
    def test_retired_options_are_usage_errors(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--list-rules", option])
        assert exc.value.code == 2


#: A snippet whose only finding is outside the relaxed profile: an
#: ``async def`` body that blocks the event loop.
ASYNC_VIOLATION = "import time\n\nasync def handler():\n    time.sleep(1)\n"


class TestProfilesStats:
    """CLI surface beyond the gate itself: ``--profile``, ``--stats``."""

    def test_relaxed_profile_skips_async_blocking(self, tmp_path):
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


class TestRepositoryStatus:
    """The repo's own lint verdict, pinned: clean, with nothing accepted
    in place.  A suppression anywhere in ``src/`` fails here and must be
    argued for deliberately."""

    def test_src_needs_no_suppressions(self):
        result = lint_paths([SRC], ALL_RULES())
        assert result.clean
        assert result.suppressed == []

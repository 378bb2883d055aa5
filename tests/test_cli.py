"""The command-line experiment runner.

Drives :func:`repro.cli.main` in-process (no subprocess) at CI scale,
checking argument plumbing, report emission, file output, and the
preset/override precedence rules.
"""

import io
from dataclasses import replace

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS


def run_cli(*argv):
    stream = io.StringIO()
    code = main(list(argv), stream=stream)
    return code, stream.getvalue()


class TestList:
    def test_lists_every_experiment(self):
        code, output = run_cli("list")
        assert code == 0
        for artifact in (
            "figure1",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "figure12",
            "table1",
            "table2",
        ):
            assert artifact in output

    def test_lists_all_sixteen_and_marks_the_run_all_twelve(self):
        _, output = run_cli("list")
        rows = [line.split() for line in output.splitlines()[:-1]]
        assert sorted(row[0] for row in rows) == sorted(EXPERIMENTS)
        assert len(rows) == 16
        marked = {row[0] for row in rows if row[1] == "*"}
        assert marked == {
            "ablation-digest", "ablation-granularity",
            "appendixb", "figure1", "figure7", "figure8", "figure9",
            "figure10", "figure11", "figure12", "table1", "table2",
        }


class TestRun:
    def test_figure7_ci_scale_prints_ratio_table(self):
        code, output = run_cli("run", "figure7", "--scale", "ci")
        assert code == 0
        assert "Figure 7" in output
        assert "delta-based-bp-rr" in output
        assert "state-based" in output
        assert "completed in" in output

    def test_table1_renders_workload_registry(self):
        code, output = run_cli("run", "table1", "--scale", "ci")
        assert code == 0
        lowered = output.lower()
        assert "gcounter" in lowered and "gset" in lowered

    def test_table2_respects_ops_override(self):
        code, output = run_cli("run", "table2", "--set", "ops=2000")
        assert code == 0
        assert "Table II" in output

    def test_figure9_accepts_size_list(self):
        code, output = run_cli(
            "run", "figure9", "--set", "sizes=6,8", "--set", "rounds=4"
        )
        assert code == 0
        assert "Figure 9" in output

    def test_figure12_accepts_coefficients(self):
        code, output = run_cli(
            "run",
            "figure12",
            "--scale",
            "ci",
            "--set",
            "coefficients=0.5,1.5",
            "--set",
            "nodes=8",
            "--config",
            '{"users": 60, "rounds": 5}',
        )
        assert code == 0
        assert "Figure 12" in output

    def test_appendixb_runs_the_causal_grid(self):
        code, output = run_cli(
            "run", "appendixb", "--scale", "ci", "--set", "nodes=6", "--set", "rounds=4"
        )
        assert code == 0
        assert "Appendix B" in output
        assert "delta-based-bp-rr" in output

    def test_node_override_beats_preset(self):
        code, output = run_cli(
            "run", "figure1", "--scale", "ci", "--set", "nodes=6", "--set", "rounds=5"
        )
        assert code == 0
        assert "Figure 1" in output

    def test_out_file_receives_report(self, tmp_path):
        target = tmp_path / "report.txt"
        code, output = run_cli(
            "run", "figure1", "--scale", "ci", "--set", "rounds=5", "--out", str(target)
        )
        assert code == 0
        written = target.read_text()
        assert "Figure 1" in written
        assert written.strip().splitlines()[0] in output

    def test_kv_faults_recovery_wal_grows_the_table(self):
        code, output = run_cli(
            "run", "kv-faults", "--config",
            '{"replicas": 4, "keys": 48, "rounds": 6, "ops_per_node": 3,'
            ' "shards": 8, "replication": 2, "repair_interval": 2}',
            "--set", "strategies=blanket,digest,wal",
        )
        assert code == 0
        # The WAL strategy row rides next to the baselines it must beat.
        for row in ("blanket", "digest", "wal"):
            assert f"\n{row} " in output or f"\n{row}+" in output
        assert "wal+repair" not in output  # only when strategies names it
        assert "wal replay" in output  # the grown column

    def test_kv_faults_default_compares_all_strategies(self):
        code, output = run_cli(
            "run", "kv-faults", "--config",
            '{"replicas": 4, "keys": 48, "rounds": 6, "ops_per_node": 3,'
            ' "shards": 8, "replication": 2, "repair_interval": 2}',
        )
        assert code == 0
        assert "wal+repair" in output

    def test_kv_rebalance_reports_handoff_vs_naive(self):
        code, output = run_cli(
            "run", "kv-rebalance", "--config",
            '{"replicas": 6, "keys": 48, "rounds": 6, "ops_per_node": 3,'
            ' "shards": 8, "replication": 2, "repair_interval": 2}',
        )
        assert code == 0
        assert "live rebalancing" in output
        assert "add 5" in output
        assert "decommission 0" in output
        assert "vs naive" in output
        assert "converged=True" in output

    def test_kv_rebalance_excludes_faults(self):
        code, _ = run_cli("run", "kv-rebalance", "--set", "strategies=wal")
        assert code == 2

    def test_kv_rebalance_rejects_disabled_repair(self):
        code, _ = run_cli("run", "kv-rebalance", "--set", "repair_interval=0")
        assert code == 2

    def test_kv_rebalance_rejects_blanket_repair_mode(self):
        code, _ = run_cli("run", "kv-rebalance", "--set", "repair_mode=blanket")
        assert code == 2

    def test_unknown_experiment_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure99"])

    def test_missing_command_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_the_kv_subcommand_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kv"])

    def test_the_lint_subcommand_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint"])


class TestOverrides:
    """``--set`` / ``--config`` reach the config or exit 2 with the reason."""

    def test_unknown_field_exits_2_naming_it(self, capsys):
        code, output = run_cli("run", "figure9", "--scale", "ci", "--set", "nodes=6")
        assert code == 2
        assert output == ""
        assert "repro run: Figure9Config has no field 'nodes'" in capsys.readouterr().err

    @staticmethod
    def capture(monkeypatch, name):
        """Stand in for ``name``'s run function; return the configs it saw."""
        seen = []

        class Report:
            def render(self):
                return "report"

        def run(config):
            seen.append(config)
            return Report()

        monkeypatch.setitem(EXPERIMENTS, name, replace(EXPERIMENTS[name], run=run))
        return seen

    def test_figure11_rounds_reach_the_config(self, monkeypatch):
        seen = self.capture(monkeypatch, "figure11")
        code, _ = run_cli("run", "figure11", "--scale", "ci", "--set", "rounds=3")
        assert code == 0
        (config,) = seen
        assert config.rounds == 3
        assert config.nodes == EXPERIMENTS["figure11"].scales["ci"]["nodes"]

    def test_set_wins_over_config_over_scale(self, monkeypatch):
        seen = self.capture(monkeypatch, "figure7")
        code, _ = run_cli(
            "run", "figure7", "--scale", "ci",
            "--config", '{"nodes": 5, "rounds": 7}', "--set", "rounds=2",
        )
        assert code == 0
        assert (seen[0].nodes, seen[0].rounds) == (5, 2)

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["figure7", "--set", "rounds=many"], "rounds: invalid literal"),
            (["figure7", "--set", "rounds"], "--set takes FIELD=VALUE"),
            (["figure7", "--config", "[1]"], "--config takes one JSON object"),
            (["figure7", "--config", "{"], "Expecting"),
            (["kv-sweep", "--scale", "paper"], "kv-sweep has no 'paper' scale"),
            (["kv-quorum", "--set", "deployment=tcp"], "no field 'deployment'"),
            (["kv-quorum", "--set", "faults=1"], "no field 'faults'"),
            (["kv-faults", "--set", "rebalance=1"], "no field 'rebalance'"),
            (["kv-sweep", "--set", "algorithms=merkle,psychic"], "unknown algorithms ['psychic']"),
            (["kv-faults", "--set", "repair_mode=digest"], "choose rows with strategies"),
            (["all", "--set", "rounds=3"], "DigestAblationConfig has no field 'rounds'"),
            (["figure1", "--set", "nodes=0"], "degree 4 must be below node count 0"),
        ],
    )
    def test_illegal_configs_are_usage_errors(self, argv, reason, capsys):
        code, output = run_cli("run", *argv)
        assert code == 2
        assert output == ""
        err = capsys.readouterr().err
        assert err.startswith("repro run: ")
        assert reason in err

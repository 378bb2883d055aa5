"""Integration tests for the figure/table drivers at reduced scale.

Each test runs the driver at a size small enough for CI and asserts the
*shape* claims of the corresponding paper artifact — who wins, in which
direction the curves move — not absolute magnitudes.
"""

import inspect
import signal
import typing
from dataclasses import replace

import pytest

from repro.config import build_config
from repro.driver import Stepped
from repro.experiments import (
    EXPERIMENTS,
    DigestAblationConfig,
    Figure9Config,
    GranularityConfig,
    KVConfig,
    KVFaultsConfig,
    KVRebalanceConfig,
    KVSweepConfig,
    MicroConfig,
    QuorumConfig,
    RetwisSweepConfig,
    Table1Config,
    Table2Config,
    run_ablation_digest,
    run_ablation_granularity,
    run_kv_quorum,
    run_kv_rebalance,
    run_kv_repair_comparison,
    run_kv_sweep,
    run_figure1,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12,
    run_table1,
    run_table2,
)
from repro.experiments.figure8 import GMAP_WORKLOADS


@pytest.fixture(scope="module")
def figure1():
    return run_figure1(MicroConfig(nodes=15, rounds=15))


@pytest.fixture(scope="module")
def figure7():
    return run_figure7(MicroConfig(nodes=15, rounds=12))


@pytest.fixture(scope="module")
def figure9():
    return run_figure9(Figure9Config(sizes=(8, 16), rounds=10))


@pytest.fixture(scope="module")
def figure10():
    return run_figure10(MicroConfig(nodes=15, rounds=12))


@pytest.fixture(scope="module")
def retwis_results():
    """Both figures read one cached sweep at the ``ci`` preset: three
    coefficients, so the trends are checked for order, not only at the
    two ends."""
    config = _ci("figure11")
    return run_figure11(config), run_figure12(config)


class TestFigure1:
    def test_classic_delta_no_better_than_state_based(self, figure1):
        assert figure1.transmission_ratio() > 0.9

    def test_delta_has_cpu_overhead(self, figure1):
        assert figure1.cpu_ratio_wall() > 1.0

    def test_series_monotone(self, figure1):
        series = figure1.cumulative_series("state-based")
        totals = [units for _, units in series]
        assert totals == sorted(totals)

    @pytest.mark.parametrize("label", ["state-based", "delta-based"])
    def test_series_grow_through_the_second_half(self, figure1, label):
        """The set always grows, so both series still climb at the end."""
        series = figure1.cumulative_series(label)
        assert series[-1][1] > series[len(series) // 2][1]

    def test_render(self, figure1):
        text = figure1.render()
        assert "Figure 1" in text
        assert "state-based" in text


class TestTable1:
    def test_all_rows_verified(self):
        result = run_table1(Table1Config())
        assert result.all_verified()
        assert "GMap 100%" in result.render()


class TestFigure7:
    def test_bp_rr_is_the_baseline(self, figure7):
        for workload in ("gset", "gcounter"):
            for topology in ("tree", "mesh"):
                assert figure7.ratio(workload, topology, "delta-based-bp-rr") == 1.0

    def test_classic_close_to_state_based_on_mesh(self, figure7):
        classic = figure7.ratio("gset", "mesh", "delta-based")
        state = figure7.ratio("gset", "mesh", "state-based")
        assert classic > 0.9 * state

    @pytest.mark.parametrize("workload", ["gset", "gcounter"])
    def test_bp_suffices_on_tree(self, figure7, workload):
        assert figure7.ratio(workload, "tree", "delta-based-bp") == 1.0

    def test_bp_has_little_effect_on_mesh(self, figure7):
        bp = figure7.ratio("gset", "mesh", "delta-based-bp")
        classic = figure7.ratio("gset", "mesh", "delta-based")
        assert bp > 0.8 * classic

    def test_rr_contributes_most_on_mesh(self, figure7):
        rr = figure7.ratio("gset", "mesh", "delta-based-rr")
        bp = figure7.ratio("gset", "mesh", "delta-based-bp")
        assert rr < 0.3 * bp
        assert rr < 0.3 * figure7.ratio("gset", "mesh", "delta-based")

    def test_scuttlebutt_beats_classic_on_gset(self, figure7):
        assert figure7.ratio("gset", "mesh", "scuttlebutt") < figure7.ratio(
            "gset", "mesh", "delta-based"
        )

    def test_scuttlebutt_loses_on_gcounter(self, figure7):
        """Opaque values cannot compress under joins (paper §V-B.1)."""
        assert figure7.ratio("gcounter", "mesh", "scuttlebutt") > figure7.ratio(
            "gcounter", "mesh", "state-based"
        )

    def test_op_based_loses_on_gcounter(self, figure7):
        assert figure7.ratio("gcounter", "mesh", "op-based") > figure7.ratio(
            "gcounter", "mesh", "state-based"
        )

    def test_gcounter_bp_rr_gain_is_modest(self, figure7):
        """BP+RR cannot do much when ~every entry changes every round."""
        assert figure7.ratio("gcounter", "mesh", "state-based") < 2.0


class TestFigure8:
    @pytest.fixture(scope="class")
    def figure8(self):
        return run_figure8(MicroConfig(nodes=15, rounds=12))

    def test_rr_crucial_on_mesh_for_every_contention(self, figure8):
        for workload in ("gmap-10", "gmap-30", "gmap-60", "gmap-100"):
            rr = figure8.ratio(workload, "mesh", "delta-based-rr")
            bp = figure8.ratio(workload, "mesh", "delta-based-bp")
            assert rr < bp

    def test_bp_rr_reduction_shrinks_with_contention(self, figure8):
        """GMap 10% benefits more than GMap 100% (Fig. 8 trend)."""
        low = figure8.reduction_vs_state_based("gmap-10", "mesh", "delta-based-bp-rr")
        high = figure8.reduction_vs_state_based("gmap-100", "mesh", "delta-based-bp-rr")
        assert low > high

    def test_gmap100_modest_improvement(self, figure8):
        reduction = figure8.reduction_vs_state_based(
            "gmap-100", "mesh", "delta-based-bp-rr"
        )
        assert 0.0 < reduction < 0.6

    @pytest.mark.parametrize("workload", GMAP_WORKLOADS)
    def test_bp_near_optimal_and_ahead_of_rr_on_tree(self, figure8, workload):
        """At mid contention a small residue remains that only RR trims:
        two nodes bumping one key from one base produce identical entries
        from two origins, and BP deduplicates provenance, not content."""
        bp = figure8.ratio(workload, "tree", "delta-based-bp")
        assert bp <= 1.25
        assert bp < figure8.ratio(workload, "tree", "delta-based-rr")

    @pytest.mark.parametrize("workload", ["gmap-10", "gmap-100"])
    def test_bp_exactly_optimal_on_tree_at_the_extremes(self, figure8, workload):
        assert figure8.ratio(workload, "tree", "delta-based-bp") == 1.0

    def test_scuttlebutt_saves_at_low_contention(self, figure8):
        assert figure8.reduction_vs_state_based("gmap-10", "mesh", "scuttlebutt") > 0.2


class TestFigure9:
    def test_delta_metadata_share_is_small(self, figure9):
        assert figure9.metadata_fraction(16, "delta-based-bp-rr") < 0.12

    def test_vector_protocols_metadata_dominates(self, figure9):
        for label in ("scuttlebutt", "scuttlebutt-gc", "op-based"):
            assert figure9.metadata_fraction(16, label) > 0.6

    @pytest.mark.parametrize("label", ["scuttlebutt-gc", "op-based"])
    def test_metadata_is_nearly_all_gc_and_op_based_traffic(self, figure9, label):
        """The paper measures 99 % and 97 % at 32 nodes."""
        assert figure9.metadata_fraction(16, label) > 0.9

    def test_growth_shapes(self, figure9):
        assert 0.7 < figure9.growth_exponent("scuttlebutt") < 1.5
        assert figure9.growth_exponent("scuttlebutt-gc") > 1.5
        assert figure9.growth_exponent("op-based") > 1.2
        assert figure9.growth_exponent("delta-based-bp-rr") < 0.5

    def test_gc_metadata_heavier_than_plain(self, figure9):
        assert figure9.metadata_per_node(16, "scuttlebutt-gc") > figure9.metadata_per_node(
            16, "scuttlebutt"
        )
        assert figure9.metadata_per_node(16, "delta-based-bp-rr") < figure9.metadata_per_node(
            16, "scuttlebutt"
        )


class TestFigure10:
    def test_state_based_is_memory_optimal(self, figure10):
        for workload in ("gcounter", "gset", "gmap-10", "gmap-100"):
            assert figure10.memory_ratio(workload, "state-based") <= 1.0

    def test_classic_overhead_over_bp_rr(self, figure10):
        """Classic and BP hold fatter δ-buffers than BP+RR."""
        for workload in ("gset", "gmap-10", "gmap-100"):
            assert figure10.memory_ratio(workload, "delta-based") > 1.0
            assert figure10.memory_ratio(workload, "delta-based-bp") > 1.0

    def test_scuttlebutt_gc_prunes_on_gmap10(self, figure10):
        assert figure10.memory_ratio("gmap-10", "scuttlebutt-gc") < figure10.memory_ratio(
            "gmap-10", "scuttlebutt"
        )

    def test_scuttlebutt_memory_only_deteriorates_without_gc(self, figure10):
        """"As long as new updates exist, the memory consumption for
        Scuttlebutt can only deteriorate" — its store is never pruned,
        so its footprint must grow faster than the GC variant's."""
        assert figure10.memory_ratio("gcounter", "scuttlebutt") > 1.0
        assert figure10.memory_ratio("gcounter", "scuttlebutt-gc") > 1.0
        cell = figure10.grid.cell("gcounter", "mesh")
        for label in ("scuttlebutt", "scuttlebutt-gc"):
            metrics = cell.results[label].metrics
            halves = metrics.split_at(metrics.last_time() / 2)
            growth = (
                halves[1].average_memory_units()
                / max(halves[0].average_memory_units(), 1e-9)
            )
            if label == "scuttlebutt":
                plain_growth = growth
            else:
                gc_growth = growth
        assert plain_growth > gc_growth

    def test_vector_protocols_highest_on_gcounter(self, figure10):
        vector = min(
            figure10.memory_ratio("gcounter", label)
            for label in ("scuttlebutt", "scuttlebutt-gc", "op-based")
        )
        delta = max(
            figure10.memory_ratio("gcounter", label)
            for label in ("delta-based", "delta-based-bp", "delta-based-bp-rr")
        )
        assert vector > delta


class TestTable2:
    def test_mix_and_rules(self):
        result = run_table2(Table2Config(ops=5000))
        assert result.mix_close_to_paper()
        assert result.update_rules_hold()

    def test_mix_and_rules_at_the_ci_preset(self):
        result = run_table2(_ci("table2"))
        assert result.mix_close_to_paper()
        assert result.update_rules_hold()


class TestFigures11And12:
    def test_gap_widens_with_contention(self, retwis_results):
        figure11, _ = retwis_results
        assert figure11.bandwidth_gap(1.5) > figure11.bandwidth_gap(0.5)

    def test_classic_near_optimal_at_low_contention(self, retwis_results):
        figure11, _ = retwis_results
        assert figure11.bandwidth_gap(0.5) < 2.5

    def test_gap_more_than_doubles_and_never_shrinks(self, retwis_results):
        figure11, _ = retwis_results
        gaps = [figure11.bandwidth_gap(c) for c in figure11.config.coefficients]
        assert gaps[-1] > 2 * gaps[0]
        assert gaps == sorted(gaps)

    def test_classic_bandwidth_rises_with_contention(self, retwis_results):
        """The unsustainable trajectory the paper calls out."""
        figure11, _ = retwis_results
        assert figure11.bandwidth(1.5, "delta-based") > figure11.bandwidth(
            0.5, "delta-based"
        )

    def test_memory_gap_widens(self, retwis_results):
        figure11, _ = retwis_results
        low = figure11.memory(0.5, "delta-based") / figure11.memory(
            0.5, "delta-based-bp-rr"
        )
        high = figure11.memory(1.5, "delta-based") / figure11.memory(
            1.5, "delta-based-bp-rr"
        )
        assert high > low

    def test_cpu_overhead_grows_with_contention(self, retwis_results):
        """Paper: 0.4x → 5.5x → 7.9x."""
        _, figure12 = retwis_results
        proxies = [figure12.cpu_ratio_proxy(c) for c in figure12.config.coefficients]
        assert proxies == sorted(proxies)
        assert figure12.cpu_ratio_proxy(1.5) > figure12.cpu_ratio_proxy(0.5)
        assert figure12.overhead_proxy(1.5) > figure12.overhead_proxy(0.5)
        assert figure12.overhead_proxy(1.5) > 0.5

    def test_classic_pays_a_multiple_at_high_contention(self, retwis_results):
        _, figure12 = retwis_results
        assert figure12.cpu_ratio_proxy(1.5) > 2.0

    @pytest.mark.wallclock
    def test_wall_clock_agrees_in_direction(self, retwis_results):
        """Timed, so deselected from the default run (see pyproject.toml);
        ``pytest -m wallclock`` runs it."""
        _, figure12 = retwis_results
        assert figure12.cpu_ratio_wall(1.5) > 0.8 * figure12.cpu_ratio_wall(0.5)

    def test_renders(self, retwis_results):
        figure11, figure12 = retwis_results
        assert "Figure 11" in figure11.render()
        assert "Figure 12" in figure12.render()


class TestAblations:
    """The digest ablation's claims are ``test_sync_digest.py::TestPairwiseSync``'s,
    on states of the ``ci`` preset's size; here it only has to run."""

    @pytest.fixture(scope="class")
    def granularity(self):
        return run_ablation_granularity(_ci("ablation-granularity"))

    def test_digest_ablation_runs_every_strategy(self):
        text = run_ablation_digest(_ci("ablation-digest")).render()
        for strategy in ("full", "state-driven", "digest-driven"):
            assert strategy in text

    def test_every_granularity_converges(self, granularity):
        assert all(result.converged for result in granularity.results.values())

    def test_whole_store_classic_collapses_at_low_contention(self, granularity):
        """The modelling choice the paper's Fig. 11 numbers depend on."""
        whole = granularity.transmission_bytes("classic / whole-store")
        assert whole > 2 * granularity.transmission_bytes("classic / per-object")

    def test_bp_rr_barely_cares(self, granularity):
        """∆ extraction is already per irreducible."""
        whole = granularity.transmission_bytes("bp+rr / whole-store")
        assert whole < 1.5 * granularity.transmission_bytes("bp+rr / per-object")


class TestRegistry:
    def test_every_paper_artifact_has_a_driver(self):
        paper_artifacts = {
            "figure1",
            "table1",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "table2",
            "figure11",
            "figure12",
        }
        run_all = {name for name, entry in EXPERIMENTS.items() if entry.in_all}
        assert paper_artifacts <= run_all
        # Extensions beyond the paper's evaluation section.
        assert run_all - paper_artifacts == {
            "appendixb", "ablation-digest", "ablation-granularity"
        }
        assert set(EXPERIMENTS) - run_all == {
            "kv-sweep", "kv-faults", "kv-rebalance", "kv-quorum"
        }

    @pytest.mark.parametrize(
        "name, scale",
        [(name, scale) for name in sorted(EXPERIMENTS) for scale in EXPERIMENTS[name].scales],
    )
    def test_every_scale_preset_builds_a_legal_config(self, name, scale):
        """Presets are plain field values, built only for the run that
        picks one: this is where an illegal preset fails."""
        entry = EXPERIMENTS[name]
        assert "default" in entry.scales and "ci" in entry.scales
        config = build_config(entry.config, entry.scales[scale])
        assert type(config) is entry.config
        if scale == "default":
            assert config == entry.config()


class TestConfigsRefuseIllegalShapes:
    """Every combination the former ``repro kv`` flags refused fails to
    build as a config, so the library cannot run it either."""

    def test_quorum_has_no_fault_rebalance_or_transport_switch(self):
        for field in ("faults", "rebalance", "strategies", "deployment"):
            with pytest.raises(ValueError, match=f"no field '{field}'"):
                build_config(QuorumConfig, {field: "1"})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: KVSweepConfig(algorithms=("merkle", "psychic")),
            lambda: KVFaultsConfig(algorithm="psychic"),
            lambda: KVRebalanceConfig(algorithm="psychic"),
            lambda: QuorumConfig(algorithm="psychic"),
        ],
    )
    def test_unknown_algorithm(self, build):
        with pytest.raises(ValueError, match="unknown algorithms"):
            build()

    def test_empty_algorithm_list(self):
        with pytest.raises(ValueError, match="no algorithms given"):
            build_config(KVSweepConfig, {"algorithms": ""})

    @pytest.mark.parametrize("config", [KVFaultsConfig, KVRebalanceConfig])
    def test_one_scenario_replays_one_inner_protocol(self, config):
        with pytest.raises(ValueError, match="unknown algorithms"):
            build_config(config, {"algorithm": "state-based,delta-based-bp-rr"})

    def test_rebalance_has_no_fault_switch(self):
        with pytest.raises(ValueError, match="no field 'strategies'"):
            build_config(KVRebalanceConfig, {"strategies": "wal"})

    def test_rebalance_requires_repair(self):
        with pytest.raises(ValueError, match="repair_interval >= 1"):
            KVRebalanceConfig(repair_interval=0)

    def test_rebalance_requires_digest_repair(self):
        with pytest.raises(ValueError, match="repair_mode digest"):
            KVRebalanceConfig(repair_mode="blanket")

    def test_fault_rows_choose_their_own_repair_mode_and_recovery(self):
        with pytest.raises(ValueError, match="choose rows with strategies"):
            KVFaultsConfig(recovery="wal")
        with pytest.raises(ValueError, match="recovery strategy 'psychic'"):
            KVFaultsConfig(strategies=("digest", "psychic"))

    @pytest.mark.parametrize(
        "config, field, value, reason",
        [
            (KVSweepConfig, "keys", "0", "at least one rank"),
            (KVSweepConfig, "ops_per_node", "-1", "ops_per_node must be non-negative"),
            (MicroConfig, "nodes", "0", "below node count 0"),
            (MicroConfig, "rounds", "-2", "rounds must be non-negative"),
            (Figure9Config, "sizes", "", "first and a last size that differ"),
            (Figure9Config, "sizes", "8", "first and a last size that differ"),
            (QuorumConfig, "replicas", "1", "replication 3 exceeds replica count 1"),
            (QuorumConfig, "keys", "0", "at least one rank"),
            (Table1Config, "nodes", "0", "at least one node"),
            (RetwisSweepConfig, "nodes", "0", "below node count 0"),
            (RetwisSweepConfig, "users", "0", "at least two users"),
            (RetwisSweepConfig, "coefficients", "", "at least one Zipf coefficient"),
            (RetwisSweepConfig, "coefficients", "1.0,-1", "Zipf coefficient must be non-negative"),
            (KVSweepConfig, "ops_per_node", "0", "ops_per_node must be positive"),
            (KVSweepConfig, "rounds", "0", "ops_per_node must be positive"),
            (MicroConfig, "rounds", "0", "rounds must be positive"),
            (Figure9Config, "rounds", "0", "rounds must be positive"),
            (RetwisSweepConfig, "rounds", "0", "rounds must be positive"),
            (RetwisSweepConfig, "ops_per_node", "0", "ops_per_node must be positive"),
            (RetwisSweepConfig, "ops_per_node", "-3", "ops_per_node must be non-negative"),
            (GranularityConfig, "nodes", "0", "below node count 0"),
            (GranularityConfig, "users", "0", "at least two users"),
            (GranularityConfig, "rounds", "0", "rounds must be positive"),
            (DigestAblationConfig, "shared", "-1", "shared must be non-negative"),
            (DigestAblationConfig, "each", "0", "each must be positive"),
        ],
    )
    def test_shapes_the_run_would_crash_on(self, config, field, value, reason):
        with pytest.raises(ValueError, match=reason):
            build_config(config, {field: value})

    def test_proc_trace_must_not_be_an_existing_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="existing file"):
            KVConfig(deployment=Stepped.PROC, trace=str(path))
        assert KVConfig(deployment=Stepped.TCP, trace=str(path)).trace == str(path)


def _ci(name):
    entry = EXPERIMENTS[name]
    return build_config(entry.config, entry.scales["ci"])


class TestRunnersReadTheirConfig:
    """Each runner takes its entry's config and nothing else, and every
    field of that config reaches the run."""

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_run_takes_exactly_its_config(self, name):
        entry = EXPERIMENTS[name]
        [parameter] = inspect.signature(entry.run).parameters.values()
        assert parameter.default is inspect.Parameter.empty
        assert typing.get_type_hints(entry.run)[parameter.name] is entry.config

    def test_kv_sweep_runs_exactly_the_configured_algorithms(self):
        config = replace(_ci("kv-sweep"), algorithms=("merkle", "state-based"))
        result = run_kv_sweep(config)
        assert tuple(result.cells) == config.algorithms

    def test_kv_faults_runs_exactly_the_configured_strategies(self):
        config = replace(_ci("kv-faults"), strategies=("wal", "digest"))
        result = run_kv_repair_comparison(config)
        assert tuple(result.cells) == config.strategies

    def test_kv_rebalance_replays_the_configured_algorithm(self):
        config = replace(_ci("kv-rebalance"), algorithm="delta-based")
        result = run_kv_rebalance(config)
        assert result.algorithm == "delta-based"
        assert "delta-based inner protocol" in result.render()
        assert result.converged


class TestKVScenarios:
    """The kv entries at their ci presets, through the one-argument
    runners: the store-scale counterpart of Figure 11, the recovery
    ladder, and quorum reads on replica processes."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return run_kv_sweep(_ci("kv-sweep"))

    def test_every_protocol_converges(self, sweep):
        for label, cell in sweep.cells.items():
            assert cell.converged, label

    def test_bp_rr_ships_the_fewest_payload_bytes(self, sweep):
        assert sweep.payload_bytes("delta-based-bp-rr") < sweep.payload_bytes(
            "state-based"
        )
        assert sweep.payload_bytes("delta-based-bp-rr") <= sweep.payload_bytes(
            "delta-based"
        )

    def test_merkle_pays_for_localization_in_metadata(self, sweep):
        merkle = sweep.cell("merkle")
        assert merkle.metadata_bytes > merkle.payload_bytes

    def test_retwis_under_a_send_budget_defers_and_still_converges(self):
        config = replace(
            _ci("kv-sweep"),
            workload="retwis",
            budget_bytes=16 * 1024,
            algorithms=("state-based", "delta-based-bp-rr"),
        )
        result = run_kv_sweep(config)
        assert all(cell.converged for cell in result.cells.values())
        assert result.cell("state-based").deferred > 0
        assert result.payload_bytes("delta-based-bp-rr") < result.payload_bytes(
            "state-based"
        )

    def test_recovery_ladder_with_digests_counted(self):
        result = run_kv_repair_comparison(_ci("kv-faults"))
        blanket, digest = result.cell("blanket"), result.cell("digest")
        verified = result.cell("wal+repair")
        assert all(cell.converged for cell in result.cells.values())
        # Digest repair stays cheaper than blanket pushes with its digest
        # metadata included, and the verified replay never re-ships
        # full states the way blanket does.
        assert digest.repair_bytes < blanket.repair_bytes
        assert verified.repair_payload_bytes < blanket.repair_payload_bytes

    def test_majority_quorum_closes_the_staleness_random_reads_show(self):
        config = _ci("kv-quorum")

        def on_alarm(signum, frame):
            raise TimeoutError("kv-quorum at the ci preset exceeded 180s")

        # Replica processes: a wedged one ends the test, not the suite.
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(180)
        try:
            result = run_kv_quorum(config)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        for cell in result.cells.values():
            assert cell.failed_ops == 0, cell.label
            assert cell.ops == config.batches * config.ops_per_batch, cell.label
        loose, strict = result.cell("r1-random"), result.cell("majority")
        assert loose.stale_session_reads > 0
        assert strict.stale_session_reads == 0
        assert strict.server_read_repairs >= strict.divergent_reads
        assert strict.read_repair_payload_bytes > 0
        assert loose.read_repair_payload_bytes == 0

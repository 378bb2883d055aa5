"""The workloads' building blocks: seeding, the driver loop, the oracle."""

import pytest

import cells
from repro.lattice.map_lattice import MapLattice
from repro.lattice.primitives import MaxInt
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.runner import run_experiment
from repro.sim.topology import partial_mesh
from repro.sync import ALGORITHMS


def _schedule(workload):
    return [
        workload.node_slice(r, n)
        for r in range(workload.rounds)
        for n in range(workload.n_nodes)
    ]


def test_same_seed_same_schedule_other_seed_other_schedule():
    one = cells.SeededGMapWorkload(15, 10, 6, seed=3)
    same = cells.SeededGMapWorkload(15, 10, 6, seed=3)
    other = cells.SeededGMapWorkload(15, 10, 6, seed=4)
    assert _schedule(one) == _schedule(same)
    assert _schedule(one) != _schedule(other)
    # The seed moves work around; it never changes how much there is.
    for r in range(one.rounds):
        keys = [k for n in range(15) for k in one.node_slice(r, n)]
        assert len(keys) == len(set(keys)) == one.keys_per_round


def test_driver_issued_updates_replay_run_experiment_byte_for_byte():
    """Applying a round's updates from outside and then running an empty
    round is the same schedule as ``run_round(updates)``: the paper-micro
    loop may time ops one by one without changing what is measured."""
    topology = partial_mesh(15, 4)
    for name in cells.MICRO_ALGORITHMS:
        reference = run_experiment(
            ALGORITHMS[name], cells.SeededGMapWorkload(15, 10, 8, seed=2), topology
        )
        workload = cells.SeededGMapWorkload(15, 10, 8, seed=2)
        cluster = Cluster(ClusterConfig(topology=topology), ALGORITHMS[name], workload.bottom())
        for r in range(workload.rounds):
            for node in range(15):
                for mutator in workload.updates_for(r, node):
                    cluster.apply_update(node, mutator)
            cluster.run_round(None)
        assert cluster.drain() == reference.drain_rounds
        assert cluster.metrics.total_bytes() == reference.transmission_bytes()
        assert cluster.metrics.average_memory_bytes() == reference.average_memory_bytes()


def test_delta_join_is_the_join_of_every_delta():
    joined = cells.DeltaJoin(keep_deltas=True)
    joined.add(MapLattice({"a": MaxInt(1)}))
    joined.add(MapLattice({"a": MaxInt(3), "b": MaxInt(2)}))
    joined.add(MapLattice())  # a no-op write returns bottom
    joined.add(MapLattice({"a": MaxInt(2)}))
    assert joined.keyspace() == MapLattice({"a": MaxInt(3), "b": MaxInt(2)})
    assert joined.encoded_bytes() > 0
    assert cells.DeltaJoin().encoded_bytes() == 0  # deltas not kept: nothing to size


def test_a_p99_is_whole_sample_and_follows_the_percentile_rule():
    times = {
        "put": [0.001] * 999 + [0.101], "get": [0.002] * 500,
        "round": [0.5, 0.5, 2.0], "drain": [1.0],
    }
    # 1000 writes leave ten samples beyond the p99; 500 reads do not
    assert cells._p99s(times) == {"put_p99_ms": 1.0}
    extra = cells._tails(times)
    assert extra["put_samples"] == 1000 and extra["put_tail"]["q"] == 0.99
    assert extra["put_max_ms"] == 101.0


def test_one_replay_folds_to_total_count_over_total_time_and_plain_medians():
    times = {
        "put": [0.001] * 999 + [0.101], "get": [0.002] * 500,
        "round": [0.5, 0.5, 2.0], "drain": [1.0],
    }
    for segment_ops in (1, cells.SEGMENT_OPS):
        folded = cells._fold_times([times], drain_rounds=2, segment_ops=segment_ops)
        # the one slow write and the slow round are in it
        assert folded["ops_per_s"] == pytest.approx(1500 / (0.999 + 0.101 + 1.0))
        assert folded["rounds_per_s"] == pytest.approx((3 + 2) / 4.0)  # drain rounds included
        assert folded["put_p50_ms"] == 1.0 and folded["get_p50_ms"] == 2.0
    in_process = cells._fold_times([{"put": [0.001], "round": [1.0], "drain": [1.0]}], 0, 1)
    assert in_process["ops_per_s"] == pytest.approx(1000.0)
    assert "get_p50_ms" not in in_process  # no reads in process


def test_a_segment_counts_with_the_least_time_any_replay_spent_in_it():
    n = 2 * cells.SEGMENT_OPS
    quiet = [0.001] * n
    # What the ops cause comes back at the same op in every replay and
    # stays in the total; a stall that hit one replay only drops out.
    recurring = list(quiet)
    recurring[3] = 0.050
    stalled_early = list(recurring)
    stalled_early[10] = 0.500
    stalled_late = list(recurring)
    stalled_late[n - 1] = 0.500
    for segment in (1, cells.SEGMENT_OPS):
        assert cells._least_total([stalled_early, stalled_late], segment) == pytest.approx(
            sum(recurring)
        )
    # ... but not when it hit the same segment of every replay: another op
    # of the segment on the serving tier, the same op in process.
    stalled_early_too = list(recurring)
    stalled_early_too[20] += 0.400
    assert cells._least_total(
        [stalled_early, stalled_early_too], cells.SEGMENT_OPS
    ) == pytest.approx(sum(recurring) + 0.400)
    assert cells._least_total([stalled_early, stalled_early_too], 1) == pytest.approx(
        sum(recurring)
    )
    assert cells._least_total([stalled_early, stalled_early], 1) == pytest.approx(
        sum(recurring) + 0.499
    )
    replays = [
        {"put": stalled_early, "round": [0.5, 0.9], "drain": [0.3]},
        {"put": stalled_late, "round": [0.7, 0.6], "drain": [0.2]},
    ]
    folded = cells._fold_times(replays, drain_rounds=1, segment_ops=cells.SEGMENT_OPS)
    assert folded["ops_per_s"] == pytest.approx(n / sum(recurring))
    assert folded["rounds_per_s"] == pytest.approx((2 + 1) / (0.5 + 0.6 + 0.2))  # round by round


def test_a_median_latency_is_over_the_ops_each_at_its_least():
    slow_first_half = {"put": [0.004, 0.004, 0.002, 0.002, 0.009], "round": [1.0], "drain": [1.0]}
    slow_second_half = {"put": [0.001, 0.001, 0.005, 0.005, 0.009], "round": [1.0], "drain": [1.0]}
    folded = cells._fold_times([slow_first_half, slow_second_half], 0, segment_ops=1)
    # per op: 1, 1, 2, 2, 9 ms -> the median op takes 2 ms; neither replay's own median does
    assert folded["put_p50_ms"] == 2.0


def _pass(put_s, put_p99_ms, wire=7.0, attempted=10):
    return cells.Pass(
        setup_walls=[0.5], wall_s=1.0,
        times={"put": [put_s] * 4, "round": [1.0], "drain": [1.0]},
        timings={"put_p99_ms": put_p99_ms},
        exact={"wire_bytes_per_update": wire, "drain_rounds": 1},
        oracle={"converged": True}, counters={}, extra={}, attempted=attempted,
    )


def test_a_run_folds_its_replays_metric_by_metric():
    passes = [_pass(0.010, 3.0), _pass(0.008, 4.0), _pass(0.012, 2.5)]
    result = cells._result(passes, replays_repeat_exactly=True)
    assert result.e2e["ops_per_s"] == pytest.approx(4 / (4 * 0.008))
    assert result.e2e["put_p50_ms"] == pytest.approx(8.0)
    assert result.e2e["rounds_per_s"] == pytest.approx((1 + 1) / 2.0)
    assert result.e2e["put_p99_ms"] == 2.5  # the best replay's: lower is better
    assert result.e2e["wire_bytes_per_update"] == 7.0 and result.e2e["setup_s"] == 0.5
    assert result.attempted == 30 and result.oracle["replays_agree"]
    assert result.extra["replays"] == 3 and result.extra["drain_rounds"] == 1


def test_replays_that_disagree_on_bytes_or_op_counts_fail_the_oracle():
    one_put_short = _pass(1.0, 1.0)
    one_put_short.times["put"].pop()  # segments would no longer hold the same ops
    for passes, exactly, ok in (
        ([_pass(1.0, 1.0), _pass(1.0, 1.0, wire=8.0)], True, False),
        ([_pass(1.0, 1.0), _pass(1.0, 1.0, wire=8.0)], False, True),  # serve bytes may jitter
        ([_pass(1.0, 1.0), _pass(1.0, 1.0, attempted=9)], False, False),
        ([_pass(1.0, 1.0), one_put_short], False, False),
    ):
        result = cells._result(passes, replays_repeat_exactly=exactly)
        assert result.oracle["replays_agree"] is ok


def test_every_declared_workload_has_a_cell():
    import declared

    assert tuple(cells.CELLS) == declared.WORKLOAD_NAMES

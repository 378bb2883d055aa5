"""The causal churn workload and the Appendix B experiment driver.

The workload must satisfy the determinism contract every comparison
sweep relies on — two instances with equal parameters replay the
identical schedule — and the driver must reproduce the paper's
transmission ordering on causal data at CI scale.
"""

import pytest

from repro.experiments.appendixb import run_appendixb
from repro.experiments.grid import MicroConfig
from repro.sim.runner import run_experiment
from repro.sim.topology import partial_mesh
from repro.sync import ALGORITHMS
from repro.workloads import AWSetChurnWorkload


class TestAWSetChurnWorkload:
    def test_schedule_is_deterministic(self):
        one = AWSetChurnWorkload(6, rounds=12, seed=5)
        two = AWSetChurnWorkload(6, rounds=12, seed=5)
        assert one.schedule == two.schedule

    def test_different_seeds_differ(self):
        one = AWSetChurnWorkload(6, rounds=12, seed=5)
        two = AWSetChurnWorkload(6, rounds=12, seed=6)
        assert one.schedule != two.schedule

    def test_add_ratio_shapes_the_mix(self):
        heavy = AWSetChurnWorkload(4, rounds=50, add_ratio=1.0)
        kinds = {
            kind
            for round_ops in heavy.schedule
            for kind, _ in round_ops
        }
        assert kinds == {"add"}

    def test_one_update_per_node_per_round(self):
        workload = AWSetChurnWorkload(5, rounds=7)
        assert workload.total_updates() == 35

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="pool_size"):
            AWSetChurnWorkload(4, rounds=5, pool_size=0)
        with pytest.raises(ValueError, match="add_ratio"):
            AWSetChurnWorkload(4, rounds=5, add_ratio=0.0)

    def test_runs_to_convergence_under_every_protocol(self):
        topology = partial_mesh(6, 4)
        finals = set()
        for label, factory in ALGORITHMS.items():
            result = run_experiment(
                factory, AWSetChurnWorkload(6, rounds=5), topology
            )
            assert result.converged, label
            finals.add(result.final_state_units)
        assert len(finals) == 1  # identical replay → identical final state


class TestAppendixBDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_appendixb(MicroConfig(nodes=8, rounds=8))

    def test_covers_the_full_grid(self, result):
        assert set(result.results) == {
            (topology, algorithm)
            for topology in ("tree", "mesh")
            for algorithm in ALGORITHMS
        }

    def test_paper_ordering_holds_on_causal_data(self, result):
        # Classic delta tracks state-based on the mesh.
        assert result.units("mesh", "delta-based") > 0.8 * result.units(
            "mesh", "state-based"
        )
        # RR beats BP under cycles; BP+RR is the best delta variant.
        assert result.units("mesh", "delta-based-rr") < result.units(
            "mesh", "delta-based-bp"
        )
        for variant in ("delta-based", "delta-based-bp", "delta-based-rr"):
            assert result.ratio("mesh", variant) >= 1.0

    def test_render_mentions_every_algorithm(self, result):
        text = result.render()
        for algorithm in ALGORITHMS:
            assert algorithm in text

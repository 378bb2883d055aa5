"""Units for the step-policy seam: clocks, free-running, model gating.

The clock seam must keep two promises at once: the round-stepped clock
reproduces the pre-seam timer arithmetic bit for bit (the byte-record
fingerprints downstream depend on those float timestamps), and the
drift clock gives every replica a genuinely private, deterministic,
precessing timeline.  The free-running transport built on the latter
must converge without ever settling a barrier, and the execution-model
knob must refuse the one combination that silently reintroduces the
barrier (free-running over the settling TCP loop).
"""

import asyncio

import pytest

from repro.config import build_config
from repro.driver import FreeRun, Stepped
from repro.experiments.kv_sweep import KVConfig, build_cluster
from repro.lattice import SetLattice
from repro.net import (
    AsyncTcpTransport,
    DriftClock,
    FreeRunTransport,
    RoundStepClock,
)
from repro.net import tcp
from repro.net.clock import STAGGER_MS
from repro.net.transport import TransportStalled
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import full_mesh, line
from repro.sync import delta_bp_rr


class TestRoundStepClock:
    def test_reproduces_the_pre_seam_arithmetic(self):
        """Expression-for-expression identity with the old run_round
        formulas — equality of floats, not approximation."""
        clock = RoundStepClock()
        for rnd in (0, 1, 7, 123):
            for node in (0, 1, 5):
                assert clock.update_at(rnd, node) == rnd * 1000.0 + node * STAGGER_MS
                assert (
                    clock.sync_at(rnd, node)
                    == rnd * 1000.0 + 1000.0 / 2 + node * STAGGER_MS
                )
            assert clock.interval_end(rnd) == rnd * 1000.0 + 1000.0 - STAGGER_MS

    def test_is_the_barrier_model(self):
        assert RoundStepClock().barrier is True


class TestDriftClock:
    def test_deterministic_per_seed(self):
        a = DriftClock(jitter=0.05, seed=3)
        b = DriftClock(jitter=0.05, seed=3)
        assert [a.sync_at(k, 2) for k in range(5)] == [
            b.sync_at(k, 2) for k in range(5)
        ]

    def test_nodes_have_private_timelines(self):
        clock = DriftClock(jitter=0.05, seed=0)
        phases = {clock.sync_at(0, node) for node in range(8)}
        assert len(phases) == 8  # no two replicas tick together

    def test_period_stays_within_jitter_bounds(self):
        clock = DriftClock(jitter=0.1, seed=1)
        for node in range(8):
            period = clock.sync_at(1, node) - clock.sync_at(0, node)
            assert 900.0 <= period <= 1100.0
            # Drift means the period differs from nominal (probability-1
            # for a continuous draw, deterministic under the fixed seed).
            assert period != 1000.0

    def test_zero_jitter_means_nominal_period_with_phase_only(self):
        clock = DriftClock(jitter=0.0, seed=5)
        for node in range(4):
            assert clock.sync_at(3, node) - clock.sync_at(2, node) == 1000.0

    def test_timers_precess_through_relative_alignments(self):
        """Two drifting timers change their relative offset every tick —
        the property that distinguishes free-running from a fixed
        stagger of the same lockstep grid."""
        clock = DriftClock(jitter=0.05, seed=0)
        offsets = {
            round(clock.sync_at(k, 0) - clock.sync_at(k, 1), 6) for k in range(10)
        }
        assert len(offsets) == 10

    def test_rejects_silly_jitter(self):
        with pytest.raises(ValueError):
            DriftClock(jitter=1.0)
        with pytest.raises(ValueError):
            DriftClock(jitter=-0.1)

    def test_is_not_the_barrier_model(self):
        assert DriftClock().barrier is False


class TestFreeRunTransport:
    def test_converges_without_a_barrier(self):
        config = ClusterConfig(full_mesh(4))
        cluster = Cluster(config, delta_bp_rr, SetLattice(), FreeRun())

        def updates_for(round_index, node):
            return [lambda state, n=node, r=round_index: SetLattice({f"e{n}-{r}"})]

        cluster.run_rounds(6, updates_for)
        drain = cluster.drain()
        assert cluster.converged()
        state = cluster.runtimes[0].synchronizer.state
        assert state == SetLattice({f"e{n}-{r}" for n in range(4) for r in range(6)})
        # Ticks kept firing during the drain, so it terminates quickly.
        assert drain < config.max_drain_rounds

    def test_rounds_are_not_quiescent(self):
        """A single free-running interval may end with work still queued
        — the defining difference from the barrier-stepped engine."""
        config = ClusterConfig(full_mesh(3))
        cluster = Cluster(config, delta_bp_rr, SetLattice(), FreeRun())
        transport = cluster.transport
        assert isinstance(transport, FreeRunTransport)
        cluster.run_round(lambda node: [lambda state: SetLattice({"x"})])
        # The perpetual timers alone guarantee a non-empty queue: every
        # replica's next tick is already scheduled past the horizon.
        assert len(transport.queue) > 0

    def test_replays_exactly(self):
        def run():
            config = ClusterConfig(full_mesh(3))
            cluster = Cluster(
                config, delta_bp_rr, SetLattice(), FreeRun(jitter=0.05, seed=9)
            )
            cluster.run_rounds(
                4,
                lambda r, n: [lambda state: SetLattice({f"{n}:{r}"})],
            )
            cluster.drain()
            return [
                (m.time, m.src, m.dst, m.kind, m.payload_bytes)
                for m in cluster.metrics.messages
            ]

        assert run() == run()

    def test_crashed_replica_keeps_its_own_timeline(self):
        config = ClusterConfig(full_mesh(3))
        cluster = Cluster(config, delta_bp_rr, SetLattice(), FreeRun())
        transport = cluster.transport
        cluster.run_round(lambda node: [lambda state: SetLattice({"a"})])
        transport.crash(2)
        before = transport._ticks.get(2, 0)
        cluster.run_round()
        cluster.run_round()
        # The timer kept firing silently while the node was down...
        assert transport._ticks.get(2, 0) > before
        transport.recover(2)
        cluster.drain()
        assert cluster.converged()


class TestDeploymentIsClosed:
    """The four deployments are the only spellings; a config's
    ``deployment`` field reads one of them or fails to build."""

    @staticmethod
    def deployment(value):
        return build_config(KVConfig, {"deployment": value}).deployment

    @pytest.mark.parametrize("transport", ["tcp", "proc"])
    def test_free_off_the_simulator_is_a_usage_error(self, transport):
        # A free-running deployment names no transport: it is the event
        # engine's, so a transport beside it does not build.
        with pytest.raises(ValueError, match="FreeRun has no field 'transport'"):
            self.deployment({"jitter": 0.1, "transport": transport})

    def test_unknown_execution_model_is_rejected(self):
        with pytest.raises(ValueError, match="is none of"):
            self.deployment("fast")

    def test_flag_pairs_map_to_the_four_deployments(self):
        assert self.deployment("sim") is Stepped.SIM
        assert self.deployment("tcp") is Stepped.TCP
        assert self.deployment("proc") is Stepped.PROC
        assert self.deployment('{"jitter": 0.1}') == FreeRun(jitter=0.1)
        with pytest.raises(ValueError):
            Stepped("free")  # free-running is not a transport name

    def test_free_run_builds_the_freerun_transport_with_its_drift(self):
        config = KVConfig(
            replicas=4, keys=16, rounds=2, deployment=FreeRun(jitter=0.1, seed=9)
        )
        cluster = build_cluster(config, "delta-based-bp-rr")
        assert isinstance(cluster.transport, FreeRunTransport)
        assert cluster.transport.clock.jitter == 0.1
        assert cluster.transport.clock.seed == 9

    def test_stepped_sim_keeps_the_default_cluster_config(self):
        """No ClusterConfig override in round mode: the sweep keeps the
        exact defaults the byte-identity fingerprints were pinned on."""
        cluster = build_cluster(
            KVConfig(replicas=4, keys=16, rounds=2), "delta-based-bp-rr"
        )
        assert type(cluster.transport).__name__ == "SimTransport"
        assert cluster.config == ClusterConfig(cluster.config.topology)
        assert cluster.config.topology.n == 4


class TestTransportStalledDiagnostics:
    def test_stall_names_the_round_and_the_stalled_replicas(self, monkeypatch):
        monkeypatch.setattr(tcp, "SETTLE_TIMEOUT_S", 0.05)
        transport = AsyncTcpTransport(ClusterConfig(line(2)), MetricsCollector(2))
        try:
            transport._round = 7
            transport._pending = 3
            transport._pending_by_dst = {1: 2, 0: 1}
            transport._progress = asyncio.Event()
            with pytest.raises(TransportStalled) as excinfo:
                transport._loop.run_until_complete(transport._settle())
            message = str(excinfo.value)
            assert "round 7" in message
            assert "replica 0 (1 frame)" in message
            assert "replica 1 (2 frames)" in message
        finally:
            transport._loop.close()

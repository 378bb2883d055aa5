"""Integration tests for the multi-process serving layer (`repro.serve`).

Each test spawns a real 4-process cluster over loopback sockets —
sized small (8 shards, a handful of rounds) so the whole module stays
in tier-1 time.  The scenarios mirror the CI smoke: convergence under
client load, SIGKILL + respawn over the surviving WAL directory, the
advisory lock on that directory, quorum reads joining ``r`` replies,
and the per-process trace files merging by origin.  What a process
cluster shares with the in-process backends — faults, membership,
drain, counters — is checked once for all of them in
``tests/test_cluster_contract.py``.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.kv import KVRoutingError, Unavailable
from repro.kv.antientropy import AntiEntropyConfig
from repro.serve import KVClient, LoadGenerator, ProcessCluster
from repro.serve.replica import wal_path
from repro.wal.storage import FileStorage, StorageLockError

SHARDS = 8


@pytest.fixture(autouse=True)
def hard_timeout():
    """Kill a wedged multi-process test instead of hanging the suite.

    SIGALRM-based so it needs no plugin; generous enough that only a
    genuine deadlock (a replica that never answers, a drain that never
    converges past its own cap) trips it.
    """

    def on_alarm(signum, frame):
        raise TimeoutError("serve integration test exceeded 180s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(180)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

#: Digest repair is what covers a recovered replica's divergence (the
#: deltas it coordinated but never shipped die with its send buffers;
#: only its WAL survives) — same pairing the in-process fault replay
#: requires.
REPAIR = AntiEntropyConfig(
    repair_interval=2, repair_mode="digest", repair_fanout=4
)


def make_cluster(**overrides) -> ProcessCluster:
    options = dict(
        shards=SHARDS, replication=3, recovery="wal", antientropy=REPAIR
    )
    options.update(overrides)
    return ProcessCluster(4, **options)


def make_client(cluster: ProcessCluster, **overrides) -> KVClient:
    options = dict(
        replicas=cluster.replicas,
        shards=SHARDS,
        replication=3,
        seed=11,
    )
    options.update(overrides)
    return KVClient(cluster.client_addresses(), **options)


def test_cluster_converges_under_client_load():
    with make_cluster() as cluster:
        with make_client(cluster, route="random") as client:
            generator = LoadGenerator(client, keys=24, seed=5)
            for _ in range(3):
                for _ in range(15):
                    generator.run_op()
                cluster.run_round(None)
            total = 0
            for _ in range(4):
                delta = client.put("gct:total", "increment", 3)
                assert not delta.is_bottom
                total += 3
            rounds = cluster.drain()
            assert cluster.converged()
            assert rounds <= cluster.max_drain_rounds
            assert client.get("gct:total") == total
            report = generator.report()
            assert report.failed_ops == 0
            assert report.ops == 45



def test_a_crash_must_say_whether_it_loses_state():
    # The signature refuses the call before any process is touched.
    with pytest.raises(TypeError, match="lose_state"):
        ProcessCluster.crash(object.__new__(ProcessCluster), 0)

def test_sigkill_respawn_recovers_from_wal():
    errors = []
    with make_cluster() as cluster:
        with make_client(cluster, route="random") as client:
            generator = LoadGenerator(
                client, keys=24, seed=3, on_error=errors.append
            )
            acked = 0
            for _ in range(2):
                for _ in range(15):
                    generator.run_op()
                try:
                    client.put("gct:probe", "increment", 1)
                    acked += 1
                except Unavailable:
                    pass
                cluster.run_round(None)

            victim = 3
            cluster.crash(victim, lose_state=True)
            assert victim in cluster.down
            for _ in range(15):
                generator.run_op()
            try:
                client.put("gct:probe", "increment", 1)
                acked += 1
            except Unavailable:
                pass
            cluster.run_round(None)

            cluster.recover(victim)
            # The respawned process rebuilt owned shards from its
            # surviving per-shard logs, not from the network.
            assert cluster.replayed_shards(victim) > 0
            client.update_addresses(cluster.client_addresses())
            for _ in range(10):
                generator.run_op()

            cluster.drain()
            assert cluster.converged()
            # The client never saw a wrong value: every surfaced failure
            # is Unavailable (the staleness contract), and the acked
            # counter reads exactly the acked total after convergence.
            assert all(isinstance(error, Unavailable) for error in errors)
            assert client.get("gct:probe") == acked


@pytest.mark.parametrize("replication,w", [(1, 1), (2, 2)], ids=["w1", "w2"])
def test_an_acked_write_survives_sigkill_of_every_owner(replication, w):
    """A write the client saw acknowledged is in every acking owner's
    WAL: killing all owners before the next tick loses none of it."""
    with ProcessCluster(2, shards=4, replication=replication, recovery="wal") as cluster:
        with make_client(cluster, shards=4, replication=replication, w=w) as client:
            client.put("gct:x", "increment", 5)
            cluster.run_round(None)
            client.put("gct:x", "increment", 7)
            for replica in (0, 1):
                cluster.crash(replica, lose_state=True)
            for replica in (0, 1):
                cluster.recover(replica)
            # Read each owner before any tick: only its own log speaks.
            for owner in cluster.ring.owners("gct:x"):
                assert cluster.value("gct:x", read_replica=owner) == 12, owner


def test_a_respawn_folds_each_wal_count_once():
    """The ``wal.*`` sums hold counters only: a killed incarnation's
    counts fold in once, and its successor's replay reads exactly the
    log bytes the predecessor left on disk."""
    with ProcessCluster(2, shards=4, replication=2, recovery="wal") as cluster:
        with make_client(cluster, shards=4, replication=2) as client:
            for i in range(20):
                client.put(f"gct:{i}", "increment", 1)
            for _ in range(2):
                cluster.run_round(None)
            before = cluster.wal_stats()
            cluster.crash(1, lose_state=True)
            logs = wal_path(cluster.run_dir, 1)
            on_disk = sum(
                os.path.getsize(os.path.join(logs, name))
                for name in os.listdir(logs)
                if name.endswith(".wal")
            )
            cluster.recover(1)
            after = cluster.wal_stats()
    assert on_disk > 0
    assert set(after) == {
        "wal_committed_bytes", "wal_replayed_bytes", "wal_records",
        "wal_compactions", "wal_discarded_records", "wal_fences",
        "wal_replays", "wal_commits", "wal_corrupt_tails",
    }
    assert after["wal_replayed_bytes"] == before["wal_replayed_bytes"] + on_disk
    # Recovery replays and writes nothing: the dead incarnation's
    # commits are counted once, by the fold.
    assert after["wal_committed_bytes"] == before["wal_committed_bytes"]


def test_wal_dir_flock_excludes_second_opener(tmp_path):
    with make_cluster(run_dir=str(tmp_path)) as cluster:
        wal_dir = wal_path(cluster.run_dir, 0)
        assert os.path.isdir(wal_dir)
        live_pid = cluster._procs[0].pid
        with pytest.raises(StorageLockError) as excinfo:
            FileStorage(wal_dir, lock=True)
        assert str(live_pid) in str(excinfo.value)
    # The lock dies with the process: after shutdown the dir reopens.
    storage = FileStorage(wal_dir, lock=True)
    assert storage.locked
    storage.release_lock()


def test_quorum_read_joins_r_replies_and_repairs_stale_owners():
    with make_cluster() as cluster:
        # w=1: only the coordinator holds the write until anti-entropy
        # runs — which this test deliberately never does before reading.
        with make_client(cluster, r=3, w=1, route="random") as client:
            client.put("set:q", "add", "quorum")
            joined = client.get("set:q")
            # The r=3 join sees the coordinator's reply even though two
            # of the three owners answered with nothing.
            assert joined == {"quorum"}
            assert client.stats["divergent_reads"] == 1
            assert client.stats["read_repairs"] == 2
        # Read repair pushed the join to the stale owners: now even an
        # r=1 read at any single owner sees the value, without any
        # anti-entropy round having run.
        with make_client(cluster, r=1, route="random") as reader:
            for _ in range(4):
                assert reader.get("set:q") == {"quorum"}
            assert reader.stats["stale_session_reads"] == 0
        server = cluster.scheduler_stats()
        assert server["read_repairs"] >= 2
        assert server["read_repair_payload_bytes"] > 0


def test_nonowner_put_is_a_routing_error_not_a_crash():
    with make_cluster() as cluster:
        client = make_client(cluster)
        try:
            owners = set(cluster.ring.owners("cnt:routed"))
            outsider = next(
                r for r in cluster.ring.replicas if r not in owners
            )
            from repro.serve import frames

            with pytest.raises(KVRoutingError, match="does not own"):
                cluster._controls[outsider].request(
                    frames.PUT, key="cnt:routed", op="increment", args=(1,)
                )
            # The connection survives a routing error: the same socket
            # serves the next request.
            assert cluster._controls[outsider].request(frames.PING).ok
        finally:
            client.close()


@pytest.mark.parametrize("plane", ["peer_port", "client_port"])
def test_oversized_declared_length_closes_the_connection(plane):
    """A 4-byte prefix declaring 0xFFFFFFFF must end in a closed
    connection within a deadline — not a replica waiting on 4 GiB — on
    both listening planes, and must not disturb other connections."""
    import socket
    import struct

    from repro.net import framing
    from repro.serve import HOST, frames

    with ProcessCluster(1, shards=4, replication=1, recovery="repair") as cluster:
        port = cluster._ports[0][plane]
        with socket.create_connection((HOST, port), timeout=5.0) as hostile:
            if plane == "peer_port":
                hostile.sendall(framing.hello(7))  # a well-formed handshake first
            hostile.sendall(struct.pack(">I", 0xFFFFFFFF))
            if plane == "client_port":
                # The client plane can say why before hanging up.
                reply = frames.decode_response(framing.recv_frame(hostile))
                assert reply.status == frames.ERR_BAD_REQUEST
                assert "too large" in reply.error
            assert hostile.recv(1) == b""  # closed (socket timeout = deadline)
        # The replica is still serving: control requests and rounds work.
        assert cluster._control(0).request(frames.PING).ok
        cluster.update("cnt:alive", "increment", 2)
        cluster.run_round(None)
        assert cluster.value("cnt:alive") == 2


def test_trace_dir_merges_per_process_files(tmp_path):
    from repro.obs import read_trace

    trace_dir = str(tmp_path / "trace")
    with make_cluster(trace_dir=trace_dir) as cluster:
        with make_client(cluster, route="random") as client:
            generator = LoadGenerator(client, keys=16, seed=9)
            for _ in range(20):
                generator.run_op()
            cluster.run_round(None)
            cluster.drain()
    # One file per replica process plus the controller's.
    files = sorted(os.listdir(trace_dir))
    assert "controller.jsonl" in files
    assert sum(name.startswith("r") for name in files) == 4
    events = read_trace(trace_dir)
    origins = {event.origin for event in events}
    assert len(origins) >= 5  # 4 replicas + the controller
    kinds = {event.type for event in events}
    assert "client-op" in kinds
    assert "round" in kinds
    assert "send" in kinds and "deliver" in kinds
    # The merge is round-major: no event of round k+1 precedes one of
    # round k (events without a round sort first within their file).
    rounds = [e.round for e in events if e.round is not None]
    assert rounds == sorted(rounds)


def test_replica_options_cross_the_process_boundary_whole():
    from repro.serve import ReplicaOptions

    options = ReplicaOptions(
        replica=2,
        replicas=(0, 1, 2),
        run_dir="/run",
        shards=SHARDS,
        replication=2,
        algorithm="delta-based-bp-rr",
        antientropy=REPAIR,
        recovery="wal+repair",
        trace_dir=None,
    )
    assert ReplicaOptions.from_json(options.to_json()) == options
    # Rebuilt through the dataclasses' own validation.
    hostile = options.to_json().replace('"digest"', '"everything"')
    with pytest.raises(ValueError, match="repair_mode"):
        ReplicaOptions.from_json(hostile)


def test_malformed_options_stop_the_replica_with_the_reason_logged(
    tmp_path, monkeypatch
):
    from repro.serve import ReplicaDied, ReplicaOptions

    honest = ReplicaOptions.to_json
    monkeypatch.setattr(
        ReplicaOptions,
        "to_json",
        lambda self: honest(self).replace('"recovery": "wal"', '"recovery": "tape"'),
    )
    run_dir = str(tmp_path)
    with pytest.raises(ReplicaDied, match="exited with [1-9]"):
        ProcessCluster(1, shards=4, replication=1, run_dir=run_dir)
    with open(os.path.join(run_dir, "r000.log"), encoding="utf-8") as log:
        assert "tape" in log.read()


class TestRunDirLifecycle:
    """A temp run dir lives as long as its cluster; a caller's is left alone."""

    @pytest.fixture
    def tmp_root(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_close_removes_the_owned_run_dir(self, tmp_root):
        with ProcessCluster(1, shards=4, replication=1) as cluster:
            run_dir = cluster.run_dir
            assert os.path.dirname(run_dir) == str(tmp_root)
            assert os.path.isfile(os.path.join(run_dir, "r000.log"))
        assert not os.path.exists(run_dir)

    def test_close_leaves_a_callers_run_dir(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with ProcessCluster(1, shards=4, replication=1, run_dir=run_dir):
            pass
        assert os.path.isfile(os.path.join(run_dir, "r000.log"))

    def test_impossible_ring_is_refused_before_any_resource(
        self, tmp_root, monkeypatch
    ):
        import gc
        import sys
        import warnings

        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        trace_dir = tmp_root / "trace"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="exceeds replica count 1"):
                ProcessCluster(1, replication=3, trace_dir=str(trace_dir))
            gc.collect()
        assert os.listdir(tmp_root) == []
        assert caught == [] and unraisable == []

    def test_failed_start_keeps_the_dir_its_error_names(self, tmp_root, monkeypatch):
        from repro.serve import ReplicaDied, ReplicaOptions

        honest = ReplicaOptions.to_json
        monkeypatch.setattr(
            ReplicaOptions,
            "to_json",
            lambda self: honest(self).replace('"recovery": "wal"', '"recovery": "tape"'),
        )
        with pytest.raises(ReplicaDied) as excinfo:
            ProcessCluster(1, shards=4, replication=1)
        (run_dir,) = os.listdir(tmp_root)
        log = os.path.join(tmp_root, run_dir, "r000.log")
        assert log in str(excinfo.value)
        with open(log, encoding="utf-8") as handle:
            assert "tape" in handle.read()

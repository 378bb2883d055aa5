"""The trace catalogue is closed in both directions.

Emitters and readers import each event type as a constant of
:mod:`repro.obs.trace`, so a misspelt name fails at import.  The other
direction is behavioural: the union of a few small traced seeded runs
must emit every catalogued type, so an entry nothing emits any more
fails here until it is retired or a run that emits it is added.
"""

import pytest

from repro.config import build_config
from repro.experiments import EXPERIMENTS
from repro.obs import trace
from repro.obs.trace import EVENT_TYPES, MemoryTraceSink, read_trace
from repro.serve import KVClient, ProcessCluster
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import line
from repro.sync import StateBased
from repro.workloads import GSetWorkload

#: CI's trace-smoke fault replay: partition, crash, heal, WAL and repair.
TRACE_SMOKE = dict(
    replicas=6, keys=120, rounds=6, ops_per_node=3, shards=12,
    repair_interval=3, repair_fanout=8, strategies="blanket,digest,wal",
)


def _experiment(tmp_path, name, scale, **fields):
    entry = EXPERIMENTS[name]
    path = str(tmp_path / f"{name}.jsonl")
    entry.run(build_config(entry.config, {**entry.scales[scale], **fields, "trace": path}))
    return read_trace(path)


def _gset_pair(**config):
    sink = MemoryTraceSink()
    cluster = Cluster(
        ClusterConfig(line(2), **config), StateBased, GSetWorkload(2, 1).bottom(), trace=sink
    )
    return cluster, sink


def _lossy_link():
    """``message-dropped``: a seeded loss model on one link."""
    cluster, sink = _gset_pair(loss_rate=0.5, loss_seed=3)
    cluster.run_rounds(6, GSetWorkload(2, rounds=6).updates_for)
    return read_trace(sink)


def _crash_in_flight():
    """``message-severed``: the receiver crashes with a message in flight."""
    cluster, sink = _gset_pair()
    cluster.apply_update(0, GSetWorkload(2, 1).updates_for(0, 0)[0])
    cluster._dispatch(0, cluster.nodes[0].sync_messages())
    cluster.crash(1, lose_state=False)
    cluster.queue.run(until=cluster.queue.now + 1000.0)
    return read_trace(sink)


def _client_write(tmp_path):
    """``client-op`` and ``read-repair``: a w=2 write pushes its δ to the
    second owner, which absorbs it as a client repair."""
    trace_dir = str(tmp_path / "proc")
    with ProcessCluster(
        2, shards=4, replication=2, recovery="repair", trace_dir=trace_dir
    ) as cluster:
        with KVClient(
            cluster.client_addresses(), replicas=cluster.replicas, shards=4,
            replication=2, w=2,
        ) as client:
            client.put("gct:x", "increment")
    return read_trace(trace_dir)


def test_every_catalogued_event_is_emitted_by_a_seeded_run(tmp_path):
    runs = [
        _experiment(tmp_path, "kv-faults", "default", **TRACE_SMOKE),
        _experiment(tmp_path, "kv-rebalance", "ci"),
        _lossy_link(),
        _crash_in_flight(),
        _client_write(tmp_path),
    ]
    emitted = {event.type for events in runs for event in events}
    assert [name for name in EVENT_TYPES if name not in emitted] == []


def test_the_catalogue_is_the_modules_event_constants():
    constants = [
        value for name, value in vars(trace).items()
        if name.isupper() and isinstance(value, str)
    ]
    assert tuple(constants) == EVENT_TYPES


def test_a_misspelt_event_fails_at_import():
    with pytest.raises(ImportError, match="SNED"):
        from repro.obs.trace import SNED  # noqa: F401

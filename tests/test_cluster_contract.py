"""One driver contract, three backends.

The same script — healthy rounds → partition with writes on both sides
→ heal → ``crash(lose_state=True)`` → recover → drain → ``add_replica``
→ drain → ``decommission_replica`` → drain — runs against the simulator,
localhost TCP, and a process cluster, all built through
:func:`~repro.serve.deploy.build_cluster` and driven through nothing but
the shared :class:`~repro.kv.driver.KVDriver` surface.  What must hold
is the same everywhere: converged, no handoff pending, every written
key readable with the schedule's joined value, the same counter names —
and, because both membership changes start from a drained cluster, the
*same transfer plan*, whichever backend fed the planner.
"""

import signal

import pytest

from repro.driver import Stepped
from repro.experiments import KVConfig, build_cluster
from repro.kv import HashRing, KVUpdate, RebalanceReport, plan_rebalance
from repro.kv.driver import ShardCopy
from repro.wal.log import COMPACT_BYTES

SEATS, SHARDS, REPLICATION = 5, 8, 2
BACKENDS = (Stepped.SIM, Stepped.TCP, Stepped.PROC)


def config_for(deployment):
    return KVConfig(
        replicas=SEATS,
        shards=SHARDS,
        replication=REPLICATION,
        repair_interval=2,
        repair_fanout=SHARDS,
        repair_mode="digest",
        recovery="wal",
        deployment=deployment,
    )


class Script:
    """Drives one cluster through the schedule, tracking ground truth."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.sets = {}
        self.counters = {}
        self.reports = []

    def add(self, key, element, owner=None):
        self.sets.setdefault(key, set()).add(element)
        if owner is None:
            self.cluster.update(key, "add", element)
        else:
            self.cluster.apply_update(owner, KVUpdate(key, "add", (element,)))

    def bump(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount
        self.cluster.update(key, "increment", amount)

    def traffic(self, tag, rounds=2):
        for r in range(rounds):
            for i in range(6):
                self.add(f"set:{(r * 6 + i) % 10}", f"{tag}-{r}-{i}")
            self.bump(f"gct:{r % 3}", r + 1)
            self.cluster.run_round(None)

    def run(self):
        cluster = self.cluster
        self.traffic("healthy")
        with pytest.raises(ValueError, match="no such nodes"):
            cluster.partition([0, 99])
        cluster.partition(range(SEATS // 2))
        for key in ("set:cut-a", "set:cut-b"):
            for owner in cluster.ring.owners(key):  # both sides of the cut
                self.add(key, f"from-{owner}", owner=owner)
        cluster.run_round(None)
        cluster.heal()
        victim = 3
        cluster.crash(victim, lose_state=True)
        self.traffic("victim-down")
        cluster.recover(victim)
        cluster.drain()
        self.reports.append(cluster.add_replica(SEATS - 1))
        self.traffic("joined")
        cluster.drain()
        self.reports.append(cluster.decommission_replica(0))
        self.traffic("left")
        cluster.drain()
        return self


@pytest.fixture(scope="module")
def outcomes():
    """Run the script once per backend; keep what the tests compare."""

    def on_alarm(signum, frame):
        raise TimeoutError("cluster contract run exceeded 240s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(240)
    results = {}
    try:
        for deployment in BACKENDS:
            ring = HashRing(range(SEATS - 1), n_shards=SHARDS, replication=REPLICATION)
            cluster = build_cluster(config_for(deployment), "delta-based-bp-rr", ring=ring)
            try:
                script = Script(cluster).run()
                results[deployment] = {
                    "converged": cluster.converged(),
                    "pending": cluster.pending_handoffs(),
                    "ring": cluster.ring.replicas,
                    "reads": {
                        key: cluster.value(key)
                        for key in (*script.sets, *script.counters)
                    },
                    "expected": {**script.sets, **script.counters},
                    "leaver_shards": cluster.hosted_shards(0),
                    "scheduler": cluster.scheduler_stats(),
                    "wal": cluster.wal_stats(),
                    "messages": cluster.metrics.message_count,
                    "payload_bytes": cluster.metrics.total_payload_bytes(),
                    "reports": script.reports,
                }
            finally:
                cluster.close()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return results


@pytest.mark.parametrize("deployment", BACKENDS, ids=lambda d: d.value)
class TestSharedContract:
    def test_converged_and_settled(self, outcomes, deployment):
        outcome = outcomes[deployment]
        assert outcome["converged"]
        assert outcome["pending"] == 0
        assert outcome["ring"] == (1, 2, 3, 4)
        assert outcome["leaver_shards"] == 0

    def test_every_written_key_reads_its_joined_value(self, outcomes, deployment):
        outcome = outcomes[deployment]
        assert outcome["reads"] == outcome["expected"]
        # The partition really took writes on both sides of the cut.
        assert len(outcome["expected"]["set:cut-a"]) == REPLICATION

    def test_membership_changes_return_the_planners_report(self, outcomes, deployment):
        added, removed = outcomes[deployment]["reports"]
        assert isinstance(added, RebalanceReport) and added.added == SEATS - 1
        assert isinstance(removed, RebalanceReport) and removed.removed == 0
        assert added.transfers and removed.transfers
        planned = len(added.transfers) + len(removed.transfers)
        scheduler = outcomes[deployment]["scheduler"]
        assert scheduler["handoffs_completed"] >= planned
        assert scheduler["handoff_segments"] > 0
        assert scheduler["handoff_payload_bytes"] > 0

    def test_traffic_was_real_and_durable(self, outcomes, deployment):
        outcome = outcomes[deployment]
        assert outcome["messages"] > 0
        assert outcome["payload_bytes"] > 0
        assert outcome["wal"]["wal_committed_bytes"] > 0
        # The lose-state victim came back from its log, not the network.
        assert outcome["wal"]["wal_replayed_bytes"] > 0


def test_backends_agree_on_counter_names_and_transfer_plans(outcomes):
    sim = outcomes[Stepped.SIM]
    for deployment in (Stepped.TCP, Stepped.PROC):
        other = outcomes[deployment]
        assert set(other["scheduler"]) == set(sim["scheduler"])
        assert set(other["wal"]) == set(sim["wal"])
        for ours, theirs in zip(sim["reports"], other["reports"]):
            assert theirs.moved_shards == ours.moved_shards
            assert theirs.transfers == ours.transfers
            assert theirs.unsourced == ours.unsourced


class TestPlanner:
    """`plan_rebalance` is pure: rings, the down set and holders in, report out."""

    OLD = HashRing(range(4), n_shards=SHARDS, replication=1)
    NEW = OLD.without_replica(3)

    def holders(self, live, content=True):
        return {
            node: {s: ShardCopy(content, 10) for s in self.OLD.shards_owned_by(node)}
            for node in live
        }

    def test_dead_sole_owner_is_reported_unsourced_not_skipped(self):
        report = plan_rebalance(self.OLD, self.NEW, {3}, self.holders([0, 1, 2]), removed=3)
        assert report.moved_shards == self.OLD.shards_owned_by(3)
        assert not report.transfers
        assert {shard for shard, _ in report.unsourced} == set(report.moved_shards)
        assert report.naive_fullstate_bytes == 0

    def test_live_leaver_sources_every_shard_it_held(self):
        report = plan_rebalance(self.OLD, self.NEW, set(), self.holders(range(4)), removed=3)
        assert not report.unsourced
        assert {(shard, src) for shard, src, _ in report.transfers} == {
            (shard, 3) for shard in report.moved_shards
        }
        assert report.naive_fullstate_bytes == 10 * len(report.transfers)

    def test_a_retained_copy_with_content_beats_an_empty_owner(self):
        shard = self.OLD.shards_owned_by(3)[0]
        holders = self.holders([0, 1, 2, 3], content=False)
        outsider = next(n for n in (0, 1, 2) if shard not in holders[n])
        holders[outsider][shard] = ShardCopy(True, 10)  # still fencing it
        report = plan_rebalance(self.OLD, self.NEW, set(), holders, removed=3)
        assert (shard, outsider) in {(s, src) for s, src, _ in report.transfers}


# ----------------------------------------------------------------------
# Every deployment hosts its replicas on the same runtime and peer plane,
# so what the trace and the counters say means the same on each.
# ----------------------------------------------------------------------


def traffic(cluster, rounds=3):
    """Writes on both sides of a partition, a heal, then a drain."""
    for r in range(rounds):
        for i in range(6):
            cluster.update(f"set:{(r * 6 + i) % 10}", "add", f"e-{r}-{i}")
        cluster.run_round(None)
    cluster.partition(range(SEATS // 2))
    cluster.update("set:cut", "add", "during")
    cluster.run_round(None)
    cluster.heal()
    cluster.drain()


@pytest.mark.parametrize(
    "deployment", (Stepped.TCP, Stepped.PROC), ids=lambda d: d.value
)
def test_deliver_events_name_their_receiver(tmp_path, deployment):
    from collections import Counter

    from repro.obs import read_trace, trace_totals
    from repro.serve.deploy import open_tracer

    trace = str(tmp_path / "trace")
    config = KVConfig(
        replicas=SEATS,
        shards=SHARDS,
        replication=REPLICATION,
        recovery="wal",
        deployment=deployment,
        trace=trace,
    )
    tracer = open_tracer(config)
    cluster = build_cluster(config, "delta-based-bp-rr", tracer=tracer, label="cell")
    try:
        traffic(cluster)
        totals = {
            "messages": cluster.metrics.message_count,
            "payload_bytes": cluster.metrics.total_payload_bytes(),
            "metadata_bytes": cluster.metrics.total_metadata_bytes(),
        }
    finally:
        cluster.close()
        if tracer is not None:
            tracer.close()
    events = read_trace(trace if deployment is Stepped.TCP else f"{trace}/cell")
    delivers = [e for e in events if e.type == "deliver"]
    sends = [e for e in events if e.type == "send"]
    assert delivers and sends
    if deployment is Stepped.PROC:
        # The receiving process wrote the event about itself.
        assert all(e.replica == e.origin for e in delivers)
    # deliver is (receiver, sender); send is (sender, receiver).
    delivered = Counter((e.peer, e.replica, e.kind) for e in delivers)
    sent = Counter((e.replica, e.peer, e.kind) for e in sends)
    assert not delivered - sent
    derived = trace_totals(events)
    assert {key: derived[key] for key in totals} == totals


@pytest.mark.parametrize(
    "deployment", (Stepped.SIM, Stepped.PROC), ids=lambda d: d.value
)
def test_wal_compaction_fires_at_compact_bytes(deployment):
    """Every replica, in this process or its own, compacts at the one
    constant threshold: never while its log is within it, and once past it."""
    config = KVConfig(
        replicas=2, shards=1, replication=1, recovery="wal", deployment=deployment
    )
    cluster = build_cluster(config, "delta-based-bp-rr")
    seen = []
    try:
        for r in range(6):
            for i in range(100):
                cluster.update(f"set:{i % 7}", "add", f"{r:02d}-{i:03d}-" + "x" * 290)
            cluster.run_round(None)
            seen.append(cluster.wal_stats())
    finally:
        cluster.close()
    within = [s for s in seen if s["wal_committed_bytes"] <= COMPACT_BYTES]
    assert within and all(s["wal_compactions"] == 0 for s in within)
    assert seen[-1]["wal_committed_bytes"] > COMPACT_BYTES
    assert seen[-1]["wal_compactions"] > 0

"""Repair-path correctness across every inner protocol and both modes.

The store's recovery path — blanket full-state pushes or
divergence-driven digest repair — must reconcile a replica group after
the two faults Algorithm 1's cleared δ-buffers cannot survive: a
partition with writes on both sides, and a crash that loses the disk.
Beyond per-shard convergence, repair must leave every inner protocol's
*bookkeeping* truthful: absorbed content flows through
``Synchronizer.absorb_state``, so a Scuttlebutt replica versions
repaired deltas (its summary vector keeps covering what it holds) and a
delta-based replica buffers them for onward propagation, instead of the
old silent ``inner.state = inner.state.join(...)`` bypass.
"""

import random

import pytest

from repro.kv import (
    AntiEntropyConfig,
    HashRing,
    KVCluster,
    KVStore,
    KVUpdate,
)
from repro.lattice import MapLattice, SetLattice
from repro.sim.network import ClusterConfig
from repro.sim.topology import full_mesh
from repro.sync import (
    MerkleSync,
    Scuttlebutt,
    ScuttlebuttGC,
    StateBased,
    classic,
    delta_bp_rr,
    keyed_bp_rr,
)
from repro.sync import digest as digest_module
from repro.sync.digest import (
    FINGERPRINT_BYTES,
    ROOT_BYTES,
    delta_against_digest,
    digest_of,
    root_of,
)
from repro.sync.protocol import Message
from repro.wal import ReplicaWal

#: Every inner protocol the store supports, including both Scuttlebutt
#: variants — each must survive the fault schedule under repair.
INNER = {
    "state-based": StateBased,
    "delta-based": classic,
    "delta-based-bp-rr": delta_bp_rr,
    "keyed-delta-bp-rr": keyed_bp_rr,
    "scuttlebutt": Scuttlebutt,
    "scuttlebutt-gc": ScuttlebuttGC,
    "merkle": MerkleSync,
}

REPAIR = dict(repair_interval=2, repair_fanout=8)


def digest_store(replica=0, members=range(3), *, shards=1, replication=3, wal=None, **kwargs):
    """One small real store in digest-repair mode."""
    config = dict(repair_interval=3, repair_fanout=8, repair_mode="digest")
    config.update(kwargs)
    members = tuple(members)
    return KVStore(
        replica=replica,
        neighbors=tuple(r for r in members if r != replica),
        bottom=MapLattice(),
        n_nodes=max(members) + 1,
        ring=HashRing(members, n_shards=shards, replication=replication),
        inner_factory=StateBased,
        antientropy=AntiEntropyConfig(**config),
        wal=wal,
    )


def repair_tick(store):
    """One planning tick; the repair transmissions as (dst, shard, message)."""
    store.scheduler.plan(store.shards)
    return store.repair.due()


def batch(shard, inner):
    """The wire frame carrying one ``(shard, inner message)`` entry."""
    return Message("kv-batch", ((shard, inner),), 0, 0, 0)


def exchange_step(store, src, inner):
    """Deliver one repair-exchange message; the inner reply, if any."""
    sends = store.handle_message(src, batch(0, inner))
    if not sends:
        return None
    (send,) = sends
    assert send.dst == src
    ((shard, reply),) = send.message.payload
    assert shard == 0
    return reply


def scuttlebutt_bookkeeping_consistent(cluster: KVCluster) -> None:
    """The vector covers the store, and the store reconstructs the state.

    ``state == ⊔ store`` is what makes a Scuttlebutt digest answer
    complete: a fresh peer (empty vector) asking this replica must be
    able to learn everything the replica holds.  GC may prune deltas
    whose versions every replica covers, so it only guarantees
    ``state ⊒ ⊔ store``.
    """
    for node in cluster.nodes:
        assert isinstance(node, KVStore)
        for shard, copy in node.shards.items():
            sync = copy.inner
            if not isinstance(sync, Scuttlebutt):
                continue
            for (origin, seq) in sync.store:
                assert seq <= sync.vector.get(origin, 0), (
                    f"replica {node.replica} shard {shard}: stored version "
                    f"({origin}, {seq}) not covered by vector {sync.vector}"
                )
            rebuilt = sync.bottom
            for delta in sync.store.values():
                rebuilt = rebuilt.join(delta)
            if isinstance(sync, ScuttlebuttGC):
                assert rebuilt.leq(sync.state)
            else:
                assert rebuilt == sync.state, (
                    f"replica {node.replica} shard {shard}: state holds "
                    "content its delta store cannot serve"
                )


@pytest.mark.parametrize("mode", ["blanket", "digest"])
@pytest.mark.parametrize("algorithm", sorted(INNER))
def test_faults_reconcile_under_repair(algorithm, mode):
    """partition + heal + crash(lose_state) converges for every protocol."""
    ring = HashRing(range(4), n_shards=8, replication=3)
    cluster = KVCluster(
        ring,
        INNER[algorithm],
        antientropy=AntiEntropyConfig(repair_mode=mode, **REPAIR),
    )
    for i in range(12):
        cluster.update(f"aws:{i}", "add", f"e{i}")
    cluster.run_round(updates=None)
    cluster.drain()

    # Partition: writes keep landing on both sides of the cut; the
    # flushed δ-groups crossing it are refused and gone.
    cluster.partition([0, 1])
    cluster.update("set:px", "add", "west")
    for owner in ring.owners("set:px"):
        cluster.apply_update(owner, KVUpdate("set:px", "add", (f"from-{owner}",)))
    for _ in range(2):
        cluster.run_round(updates=None)
    cluster.heal()
    cluster.drain()
    assert cluster.converged(), f"{algorithm}/{mode} diverged after partition"

    # Crash with disk loss: the rebuilt replica holds nothing and must
    # be refilled through the repair path.
    cluster.crash(1, lose_state=True)
    cluster.update("aws:0", "add", "while-down")
    cluster.run_round(updates=None)
    cluster.recover(1)
    cluster.drain()
    assert cluster.converged(), f"{algorithm}/{mode} diverged after crash"
    assert cluster.value("aws:0") >= {"e0", "while-down"}
    for i in range(1, 12):
        assert cluster.value(f"aws:{i}") == frozenset({f"e{i}"})

    scuttlebutt_bookkeeping_consistent(cluster)


def lossy_cluster(loss_rate, seed, antientropy):
    """Eight rounds of ``aws:``/``cnt:``/``set:`` writes at random owners
    over links that drop each message with probability ``loss_rate``.

    Returns the cluster and what its ``cnt:`` and ``set:`` keys must
    read once nothing is lost: the sums and unions of the writes.
    """
    ring = HashRing(range(6), n_shards=16, replication=3)
    config = ClusterConfig(full_mesh(6), loss_rate=loss_rate, loss_seed=seed)
    cluster = KVCluster(ring, keyed_bp_rr, antientropy=antientropy, config=config)
    rng = random.Random(seed)
    counts, sets = {}, {}
    for _ in range(8):
        for _ in range(12):
            kind = rng.choice(("aws", "cnt", "set"))
            key = f"{kind}:{rng.randrange(6)}"
            if kind == "aws":
                op, arg = ("add" if rng.random() < 0.7 else "remove"), f"e{rng.randrange(8)}"
            elif kind == "cnt":
                op, arg = "increment", 1 + rng.randrange(3)
                counts[key] = counts.get(key, 0) + arg
            else:
                op, arg = "add", f"s{rng.randrange(20)}"
                sets.setdefault(key, set()).add(arg)
            cluster.apply_update(rng.choice(ring.owners(key)), KVUpdate(key, op, (arg,)))
        cluster.run_round(updates=None)
    expected = {**counts, **{key: frozenset(elements) for key, elements in sets.items()}}
    return cluster, expected


#: (loss rate, seed, drain rounds, messages dropped), pinned: the loss
#: flips are seeded per edge and no hash order reaches them.
LOSSY_RUNS = [
    (0.05, 1, 1, 11),
    (0.05, 2, 1, 8),
    (0.05, 3, 0, 17),
    (0.2, 1, 3, 49),
    (0.2, 2, 4, 71),
    (0.2, 3, 15, 95),
]


@pytest.mark.parametrize("loss_rate,seed,drain_rounds,dropped", LOSSY_RUNS)
def test_digest_repair_carries_the_store_through_message_loss(
    loss_rate, seed, drain_rounds, dropped
):
    """Algorithm 1 assumes reliable channels; on the kv path digest
    repair is what refills a replica whose δ-group was dropped."""
    cluster, expected = lossy_cluster(
        loss_rate, seed, AntiEntropyConfig(repair_mode="digest", **REPAIR)
    )
    assert cluster.drain() == drain_rounds
    assert cluster.messages_dropped == dropped
    assert cluster.converged()
    for key, value in expected.items():
        assert cluster.value(key) == value, key


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_without_repair_a_lossy_store_never_converges(seed):
    cluster, _ = lossy_cluster(0.2, seed, AntiEntropyConfig())
    with pytest.raises(RuntimeError, match="no convergence"):
        cluster.drain()


class TestAbsorbState:
    """The protocol-aware repair hook, per synchronizer."""

    def keyspace(self, *keys):
        from repro.lattice import SetLattice

        return MapLattice({k: SetLattice({f"v-{k}"}) for k in keys})

    def test_default_returns_the_inflating_delta(self):
        node = StateBased(0, [1], MapLattice(), 2)
        first = node.absorb_state(self.keyspace("a", "b"))
        assert first == self.keyspace("a", "b")
        again = node.absorb_state(self.keyspace("a"))
        assert again.is_bottom
        assert node.state == self.keyspace("a", "b")

    def test_delta_based_buffers_the_novelty(self):
        node = delta_bp_rr(0, [1, 2], MapLattice(), 3)
        node.absorb_state(self.keyspace("a"), src=1)
        assert node.state == self.keyspace("a")
        # The repaired content propagates: BP skips only the source.
        sends = node.sync_messages()
        assert [send.dst for send in sends] == [2]
        assert sends[0].message.payload == self.keyspace("a")

    def test_keyed_buffers_per_object_novelty(self):
        node = keyed_bp_rr(0, [1, 2], MapLattice(), 3)
        node.local_update(lambda state: self.keyspace("a"))
        node.sync_messages()  # flush
        absorbed = node.absorb_state(self.keyspace("a", "b"), src=1)
        assert absorbed == self.keyspace("b")  # only the novelty
        sends = node.sync_messages()
        assert [send.dst for send in sends] == [2]

    def test_scuttlebutt_versions_repaired_content(self):
        node = Scuttlebutt(0, [1], MapLattice(), 2)
        absorbed = node.absorb_state(self.keyspace("a"))
        assert absorbed == self.keyspace("a")
        # The bug this hook fixes: the vector must cover the content.
        assert node.vector == {0: 1}
        assert node.store[(0, 1)] == self.keyspace("a")
        # A fresh peer's empty digest now learns the repaired content.
        replies = node.handle_message(1, node.sync_messages()[0].message.__class__(
            kind="digest", payload={}, payload_units=0, payload_bytes=0,
            metadata_bytes=0, metadata_units=0,
        ))
        assert replies and replies[0].message.payload == [((0, 1), self.keyspace("a"))]

    def test_scuttlebutt_absorbing_known_content_is_free(self):
        node = Scuttlebutt(0, [1], MapLattice(), 2)
        node.absorb_state(self.keyspace("a"))
        again = node.absorb_state(self.keyspace("a"))
        assert again.is_bottom
        assert node.vector == {0: 1}
        assert len(node.store) == 1


class TestSchedulerPhase:
    @pytest.mark.parametrize("lose_state", [False, True])
    def test_recovered_store_rejoins_the_cluster_round(self, lose_state):
        """Downtime must not desynchronize the repair cadence.

        Down nodes do not tick, so a crashed replica — rebuilt from
        bottom or not — lags the cluster by its whole downtime until
        ``recover`` realigns it with the co-owners that kept running.
        """
        ring = HashRing(range(3), n_shards=4, replication=3)
        cluster = KVCluster(
            ring, keyed_bp_rr, antientropy=AntiEntropyConfig(repair_interval=5)
        )
        cluster.update("set:x", "add", "a")
        for _ in range(3):
            cluster.run_round(updates=None)
        cluster.crash(1, lose_state=lose_state)
        for _ in range(3):
            cluster.run_round(updates=None)  # the downtime: no ticks at 1
        cluster.recover(1)
        recovered = cluster.nodes[1]
        survivor = cluster.nodes[0]
        assert isinstance(recovered, KVStore) and isinstance(survivor, KVStore)
        assert recovered.scheduler.tick == cluster.rounds_run
        assert recovered.scheduler.tick == survivor.scheduler.tick

    def test_restore_clock_is_forwarded(self):
        ring = HashRing(range(2), n_shards=2, replication=2)
        from repro.kv import kv_store_factory
        store = kv_store_factory(ring, keyed_bp_rr)(0, [1], MapLattice(), 2)
        store.restore_clock(17)
        assert store.scheduler.tick == 17


class TestColdnessScheduling:
    """The repair plane's δ-path clocks, driven through small real stores."""

    store = staticmethod(digest_store)

    @staticmethod
    def tick(store):
        """One planning tick; the repair transmissions as (shard, dst, kind)."""
        return [(shard, dst, m.kind) for dst, shard, m in repair_tick(store)]

    def test_cold_paths_are_probed_once_per_interval(self):
        store = self.store()
        probed = [self.tick(store) for _ in range(7)]
        # Cold from tick 3 on, re-probed every interval, never spammed.
        both = [(0, 1, "kv-digest"), (0, 2, "kv-digest")]
        assert probed[:2] == [[], []]
        assert probed[2] == both
        assert probed[3] == probed[4] == []
        assert probed[5] == both

    def test_delta_activity_resets_the_clock(self):
        store = self.store(members=range(2), replication=2)
        for _ in range(2):
            self.tick(store)
            store.repair.note_delta_activity(0, 1)
        for _ in range(2):
            assert self.tick(store) == []
        # Activity stopped two ticks ago; one more cold tick trips it.
        assert self.tick(store) == [(0, 1, "kv-digest")]

    def test_suspicion_marks_shared_shards(self):
        store = self.store(shards=8, replication=2)
        self.tick(store)
        for shard, copy in store.shards.items():
            for peer in copy.neighbors:
                store.repair.note_delta_activity(shard, peer)
        store.note_send_blocked(2)
        # Peer 2's δ-paths are suspect and probed on the very next tick
        # even though they were just active; peer 1's paths are not.
        shared = [s for s in sorted(store.shards) if 2 in store.shards[s].neighbors]
        assert shared and len(shared) < len(store.shards)
        assert self.tick(store) == [(shard, 2, "kv-digest") for shard in shared]
        # A probe is in flight: the rate limiter holds further probes.
        assert self.tick(store) == []

    def test_cold_probes_respect_the_pair_tiebreak(self):
        """Only the lower-id side of a pair initiates coldness probes."""
        low = self.store(2, (2, 5), replication=2)
        high = self.store(5, (2, 5), replication=2)
        low_fired = []
        for _ in range(4):
            low_fired.append(self.tick(low))
            assert self.tick(high) == []
        assert [(0, 5, "kv-digest")] in low_fired

    def test_suspicion_overrides_the_tiebreak(self):
        """A blocked send is evidence only its observer holds: the
        higher-id replica must probe a suspect lower-id peer, or lost
        δ-groups could stay unrepaired while ongoing traffic keeps the
        other side's coldness clock warm."""
        store = self.store(5, (2, 5), replication=2)
        self.tick(store)
        store.note_send_blocked(2)
        assert self.tick(store) == [(0, 2, "kv-digest")]

    def test_blanket_mode_never_probes(self):
        store = self.store(
            members=range(2), replication=2, repair_mode="blanket", repair_interval=2
        )
        store.update("set:x", "add", "a")
        for tick in range(1, 5):
            assert self.tick(store) == ([(0, 1, "kv-repair")] if tick % 2 == 0 else [])

    def test_repair_mode_validated(self):
        with pytest.raises(ValueError, match="repair_mode"):
            AntiEntropyConfig(repair_mode="psychic")


class TestRepairByteAccounting:
    def test_digest_repair_is_counted_and_cheaper(self):
        def run(mode):
            ring = HashRing(range(4), n_shards=8, replication=3)
            cluster = KVCluster(
                ring,
                keyed_bp_rr,
                antientropy=AntiEntropyConfig(repair_mode=mode, **REPAIR),
            )
            for i in range(12):
                cluster.update(f"set:{i}", "add", f"e{i}")
            cluster.run_round(updates=None)
            cluster.drain()
            cluster.crash(3, lose_state=True)
            cluster.run_round(updates=None)
            cluster.recover(3)
            cluster.drain()
            assert cluster.converged()
            return cluster.scheduler_stats()

        blanket, digest = run("blanket"), run("digest")
        assert blanket["repairs"] > 0 and blanket["probes"] == 0
        assert digest["probes"] > 0
        assert 0 < digest["repair_payload_bytes"] < blanket["repair_payload_bytes"]

    def test_blocked_repair_pushes_are_not_counted(self):
        """Repair traffic is accounted on arrival: pushes refused by a
        down peer never crossed the wire and must not count."""
        ring = HashRing(range(2), n_shards=2, replication=2)
        cluster = KVCluster(
            ring,
            keyed_bp_rr,
            antientropy=AntiEntropyConfig(
                repair_mode="blanket", repair_interval=1, repair_fanout=4
            ),
        )
        cluster.update("set:a", "add", "x")
        for _ in range(2):
            cluster.run_round(updates=None)
        base = cluster.scheduler_stats()["repair_payload_bytes"]
        assert base > 0
        cluster.crash(1, lose_state=False)
        for _ in range(3):
            cluster.run_round(updates=None)
        assert cluster.messages_blocked > 0
        assert cluster.scheduler_stats()["repair_payload_bytes"] == base

    def test_rebuild_keeps_cluster_wide_repair_accounting(self):
        """crash(lose_state=True) must not erase the victim's counters."""
        ring = HashRing(range(3), n_shards=4, replication=3)
        cluster = KVCluster(
            ring,
            keyed_bp_rr,
            antientropy=AntiEntropyConfig(
                repair_mode="blanket", repair_interval=1, repair_fanout=4
            ),
        )
        cluster.update("set:a", "add", "x")
        for _ in range(2):
            cluster.run_round(updates=None)
        before = cluster.scheduler_stats()
        assert before["repair_payload_bytes"] > 0
        cluster.crash(2, lose_state=True)
        after = cluster.scheduler_stats()
        assert after["repair_payload_bytes"] == before["repair_payload_bytes"]
        assert after["repairs"] == before["repairs"]


class TestDigestExchangeReadsTheIndex:
    """Steps 1–4 are reads of each shard's one fingerprint index: the
    messages are what ``digest_of`` / ``delta_against_digest`` build from
    the raw states, and a warm index answers them without re-hashing."""

    @staticmethod
    def pair():
        return digest_store(0, (0, 1), replication=2), digest_store(1, (0, 1), replication=2)

    @staticmethod
    def probe_from(store):
        """Tick until the store's coldness clock fires its one probe."""
        for _ in range(4):
            due = repair_tick(store)
            if due:
                ((dst, shard, probe),) = due
                assert (dst, shard) == (1, 0)
                return probe
        raise AssertionError("no probe within one repair interval")

    def test_each_message_is_what_the_raw_states_define(self):
        a, b = self.pair()
        for store in (a, b):  # common ground, held by both
            store.update("set:k", "add", "s1")
            store.update("set:both", "add", "z")
        b.shards[0].absorb(a.update("aws:w", "add", "x"), 0, drain=True)
        a.update("set:k", "add", "a1")  # B holds part of this value
        a.update("set:a-only", "add", "q")  # B holds none of this one
        a.update("aws:w", "add", "ya")
        b.update("set:k", "add", "b1")
        b.update("set:b-only", "add", "r")
        b.remove("aws:w")
        b.update("aws:w", "add", "yb")
        state_a, state_b = a.shards[0].state, b.shards[0].state
        digest_a, digest_b = digest_of(state_a), digest_of(state_b)

        probe = self.probe_from(a)
        assert (probe.kind, probe.payload) == ("kv-digest", root_of(digest_a))
        assert probe.metadata_bytes == ROOT_BYTES

        diff = exchange_step(b, 0, probe)
        assert (diff.kind, diff.payload) == ("kv-diff", digest_b)
        assert diff.metadata_bytes == len(digest_b) * FINGERPRINT_BYTES

        repair = exchange_step(a, 1, diff)
        for_b = delta_against_digest(state_a, digest_b)
        assert (repair.kind, repair.payload) == ("kv-repair", (for_b, digest_a))
        assert repair.payload_bytes == for_b.size_bytes()
        assert repair.payload_units == for_b.size_units()
        assert repair.metadata_bytes == len(digest_a) * FINGERPRINT_BYTES
        # A wholly lacking value travels as the object the shard holds.
        assert repair.payload[0].entries["set:a-only"] is state_a.entries["set:a-only"]

        back = exchange_step(b, 0, repair)
        for_a = delta_against_digest(state_b.join(for_b), digest_a)
        assert (back.kind, back.payload) == ("kv-repair", (for_a, None))
        assert back.payload_bytes == for_a.size_bytes()
        assert back.metadata_bytes == 0

        assert exchange_step(a, 1, back) is None
        assert a.shards[0].state == b.shards[0].state == state_a.join(state_b)
        assert a.shards[0].root() == b.shards[0].root()

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count irreducibles hashed and the set values asked to decompose.

        The index hashes through ``key_fingerprints``; the generic
        ``fingerprint`` is counted too, so a read that fell back to the
        reference functions would not pass as hashing nothing.
        """
        calls = {"hashed": 0, "decomposed": []}
        key_fingerprints = digest_module.key_fingerprints
        fingerprint, decompose = digest_module.fingerprint, SetLattice.decompose

        def counting_key_fingerprints(key, value):
            fps = key_fingerprints(key, value)
            calls["hashed"] += len(fps)
            return fps

        def counting_fingerprint(irreducible):
            calls["hashed"] += 1
            return fingerprint(irreducible)

        def counting_decompose(value):
            calls["decomposed"].append(value)
            return decompose(value)

        monkeypatch.setattr(digest_module, "key_fingerprints", counting_key_fingerprints)
        monkeypatch.setattr(digest_module, "fingerprint", counting_fingerprint)
        monkeypatch.setattr(SetLattice, "decompose", counting_decompose)
        return calls

    @staticmethod
    def reset(calls):
        calls["hashed"] = 0
        calls["decomposed"].clear()

    def wide_pair(self, extra_at):
        """Two 200-key shards; ``extra_at`` holds one irreducible more."""
        a, b = self.pair()
        for store in (a, b):
            for i in range(200):
                store.update(f"set:{i:03d}", "add", "x")
                store.update(f"set:{i:03d}", "add", "y")
        (a, b)[extra_at].update("set:117", "add", "extra")
        return a, b

    def test_a_peer_one_irreducible_short_costs_one_decomposition(self, counted):
        a, b = self.wide_pair(extra_at=0)
        diff = exchange_step(b, 0, self.probe_from(a))  # both roots asked once
        self.reset(counted)
        repair = exchange_step(a, 1, diff)
        delta, _ = repair.payload
        assert delta == MapLattice({"set:117": SetLattice({"extra"})})
        assert counted["hashed"] == 0
        (decomposed,) = counted["decomposed"]  # one value, not 200
        assert decomposed is a.shards[0].state.entries["set:117"]
        # Absorbing re-fingerprints the one value that grew, nothing else.
        self.reset(counted)
        assert exchange_step(b, 0, repair) is None
        assert counted["hashed"] == 3
        assert a.shards[0].root() == b.shards[0].root()

    def test_the_echo_leg_reads_a_warm_index(self, counted):
        a, b = self.wide_pair(extra_at=1)
        diff = exchange_step(b, 0, self.probe_from(a))
        self.reset(counted)
        repair = exchange_step(a, 1, diff)
        assert repair.payload[0].is_bottom  # A holds nothing B lacks
        assert counted == {"hashed": 0, "decomposed": []}
        back = exchange_step(b, 0, repair)
        assert back.payload == (MapLattice({"set:117": SetLattice({"extra"})}), None)
        assert counted["hashed"] == 0
        (decomposed,) = counted["decomposed"]
        assert decomposed is b.shards[0].state.entries["set:117"]

    def test_a_replayed_shard_hashes_each_irreducible_once(self, counted):
        """A shard rebuilt from its log starts with a cold index: the
        first read hashes every irreducible, and no later read of the
        three hashes any of them again."""
        wal = ReplicaWal(0)
        store = digest_store(wal=wal)
        for i in range(12):
            store.update(f"set:{i}", "add", "x")
            store.update(f"set:{i}", "add", f"y{i}")
            store.update(f"aws:{i}", "add", "a")
            store.update(f"aws:{i}", "add", "b")
            store.update(f"cnt:{i}", "increment", i + 1)
        store.remove("aws:3")
        store.update("aws:4", "remove", "a")
        store.sync_messages()  # tick: group commit
        state = store.shards[0].state
        irreducibles = sum(1 for _ in state.decompose())
        digest = digest_of(state)
        own = sorted(digest)
        remotes = (frozenset(), digest, frozenset(own[::2]))
        deltas = [delta_against_digest(state, remote) for remote in remotes]

        shard = digest_store(wal=wal).shards[0]
        self.reset(counted)
        assert shard.replay()
        assert shard.state == state
        assert counted["hashed"] == 0  # replay itself hashes nothing
        assert shard.root() == root_of(digest)
        assert counted["hashed"] == irreducibles
        assert shard.fingerprints() == digest
        assert [shard.missing(remote) for remote in remotes] == deltas
        assert counted["hashed"] == irreducibles

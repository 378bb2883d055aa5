"""The five workloads of the perf benchmark, each with its oracle.

Every workload is one function ``run_<name>(seed, scale, ctx)`` run in a
fresh process.  Load comes from **one single-threaded closed-loop
driver with one request in flight**: the driver issues an op through the
tier's public API, waits for it to return, and only then issues the next
— in-process that is a plain call (writes only: the in-process tiers are
driven by update schedules), on the serving tier a blocking socket round
trip (puts and gets).  Sync rounds run between batches of ops and are
timed apart, so op latency and round cost never mix.

Work is *fixed per (seed, seconds)*, not time-boxed: the same arguments
replay the same operations, which is what lets the byte metrics repeat
exactly.  ``scale`` (``--seconds`` over the declared run length) scales
op and round counts; the 100k / 20k / 2k keyspaces never shrink.

**Timings are raw ``perf_counter`` differences, taken over several
identical replays.**  The reference box is a shared VM that slows down
by up to half for stretches of milliseconds to minutes, so ten single
passes of a deterministic replay spread by 15-30 %.  A run therefore
replays its seeded schedule :data:`REPLAYS` times, each on a freshly
set-up cluster and from the same collector state, and every replay
issues the same ops in the same order.  What an op costs is the same in
every replay; what the machine adds to it differs, and is never
negative.  So the schedule is cut into **segments** — single ops in
process, :data:`SEGMENT_OPS` consecutive ops on the serving tier, single
sync rounds — and each segment counts with the least time any replay
spent in it (:func:`_least_total`).  A rate is total count over the sum
of *all* segments, so whatever recurs at the same place in every replay
— a WAL compaction, the repair round every third round, a collection the
allocations of the same ops trigger — stays in it, and a stall that hit
a segment in one replay and not in the others drops out.  A median
latency is the median over the schedule's ops, each op at its least; a
p99 is taken over each replay as a whole and the best replay's is
reported, because a tail is made of the very pauses a minimum would
choose between.  Nothing is scaled and nothing of the benchmark runs
inside the timed stretches.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.codec import encode
from repro.kv.antientropy import AntiEntropyConfig
from repro.kv.cluster import KVCluster
from repro.kv.ring import HashRing
from repro.lattice.base import Lattice
from repro.lattice.map_lattice import MapLattice
from repro.serve.client import KVClient
from repro.serve.cluster import ProcessCluster
from repro.serve.loadgen import LoadGenerator
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import partial_mesh
from repro.sync import ALGORITHMS, keyed_bp_rr
from repro.wal import MemoryStorage
from repro.workloads.kv import KVZipfWorkload
from repro.workloads.micro import GMapWorkload

import declared
import stats
import tracer as tracing

_clock = time.perf_counter

#: Which way each end-to-end metric is better.
BETTER = {metric.name: metric.better for metric in declared.END_TO_END + declared.REPORTED}

#: Set-ups a run times at the least; ``setup_s`` is the median of them all.
MIN_SETUPS = 3

# Sizes at scale 1.0 (``--seconds`` = declared run length).  Shrink for
# a tighter time cap by lowering round/op counts proportionally — never
# the keyspaces, which are what make each workload the size it is.
MICRO_NODES, MICRO_DEGREE, MICRO_PERCENT = 15, 4, 10
MICRO_ROUNDS = 70
MICRO_ALGORITHMS = ("delta-based-bp-rr", "delta-based", "state-based")

STORE_REPLICAS, STORE_SHARDS, STORE_KEYS = 8, 512, 100_000
STORE_STEADY_ROUNDS, STORE_OPS_PER_NODE = 8, 32

TCP_REPLICAS, TCP_SHARDS, TCP_KEYS = 8, 64, 20_000
TCP_ROUNDS, TCP_OPS_PER_NODE = 30, 32

SERVE_REPLICAS, SERVE_SHARDS, SERVE_KEYS = 4, 32, 2_000
SERVE_WARMUP_OPS, SERVE_ROUND_EVERY, SERVE_PROBE_EVERY = 200, 250, 100
SERVE_MIXED_OPS, SERVE_QUORUM_OPS = 2_750, 1_750
SERVE_SAMPLE_KEYS = 200

REPLICATION = 3

#: Identical replays of the seeded schedule per run (a traced run makes
#: one).  The two workloads the driver runs get as many as fit in 35 s;
#: ``store-sim-100k`` needs 17 s for one pass over its 100k keys and gets two.
REPLAYS = {
    "paper-micro": 30,
    "store-sim-100k": 2,
    "tcp-faults": 15,
    "serve-mixed": 11,
    "serve-quorum-write": 5,
}

#: Consecutive ops of one verb that make one segment on the serving tier,
#: about 10 ms.  The replica processes serve the same requests in every
#: replay but poll and collect at their own moments, so a segment has to be
#: long enough to hold what its ops cause every time.  In process the
#: replays repeat exactly — same calls, same allocations, same collections
#: on the same ops — and every op is its own segment.
SEGMENT_OPS = 50


@dataclass
class RunContext:
    """Per-run environment handed to a workload by the runner."""

    #: Directory (inside the checkout) for replica run dirs and dumps.
    scratch: str
    #: The installed tracer, or ``None`` on an untraced run.
    tracer: Optional[tracing.LayerTracer] = None


@dataclass
class Pass:
    """One replay of a workload's seeded schedule on a fresh set-up."""

    setup_walls: List[float]
    #: Every duration of this replay: the latency of each ``put`` and ``get``
    #: in issue order, the wall of each sync ``round`` and of the ``drain``.
    times: Dict[str, List[float]]
    #: The timing metrics one replay has by itself: tails, phase walls.
    timings: Dict[str, float]
    #: Wall clock of the measured schedule, set-up excluded.
    wall_s: float
    #: What the seed alone determines: byte and memory metrics, drain rounds.
    exact: Dict[str, float]
    oracle: Dict[str, bool]
    counters: Dict[str, float]
    extra: Dict[str, Any]
    attempted: int
    failed: int = 0
    #: Peak resident set of the replica processes, for the serving tier.
    replica_rss_mb: float = 0.0
    replica_layers: Optional[Dict[str, Dict[str, float]]] = None
    replica_spans: List[Dict[str, Any]] = field(default_factory=list)
    user_deltas: Optional["DeltaJoin"] = None


@dataclass
class CellResult:
    #: End-to-end metrics: the ones every workload has plus this
    #: workload's own.
    e2e: Dict[str, float]
    counters: Dict[str, float]
    #: Ungated context printed beside the metrics: sample counts, tails,
    #: phase walls, drain rounds.
    extra: Dict[str, Any]
    attempted: int
    failed: int
    oracle: Dict[str, bool]
    #: Median wall clock of one replay's measured schedule: what a traced
    #: replay is compared with for ``trace_overhead_ratio``.
    replay_wall_s: float
    #: Per-span aggregates and recorded spans of the replica processes
    #: (traced serve runs).
    replica_layers: Optional[Dict[str, Dict[str, float]]] = None
    replica_spans: List[Dict[str, Any]] = field(default_factory=list)
    #: The user deltas of a traced run, for ``wal.write_amp``: the runner
    #: sizes them once the tracer is off, so encoding them adds no spans.
    user_deltas: Optional["DeltaJoin"] = None


class DeltaJoin:
    """The per-key join of every delta the driver's writes returned."""

    def __init__(self, keep_deltas: bool = False) -> None:
        self.entries: Dict[Hashable, Lattice] = {}
        #: The deltas themselves, kept only on traced runs, where
        #: ``wal.write_amp`` will ask for their encoded size.
        self.deltas: Optional[List[Lattice]] = [] if keep_deltas else None

    def add(self, delta: Lattice) -> None:
        if self.deltas is not None:
            self.deltas.append(delta)
        entries = self.entries
        for key, value in delta.entries.items():
            known = entries.get(key)
            entries[key] = value if known is None else known.join(value)

    def keyspace(self) -> MapLattice:
        return MapLattice(self.entries)

    def encoded_bytes(self) -> int:
        """Encoded size of the non-bottom user deltas (what a WAL must hold)."""
        if self.deltas is None:
            return 0
        return sum(len(encode(delta)) for delta in self.deltas if not delta.is_bottom)


def _timed_setups(build: Callable[[], Any], teardown: Callable[[Any], None], repeats: int):
    """Set up ``repeats`` times; keep the last, time them all."""
    walls: List[float] = []
    built = None
    for _ in range(repeats):
        if built is not None:
            teardown(built)
        started = _clock()
        built = build()
        walls.append(_clock() - started)
    return built, walls


def _replay(workload: str, ctx: RunContext, once: Callable[[int], Pass]) -> List[Pass]:
    """Run ``once(setups)`` — one whole replay — as often as the workload asks.

    A traced run replays once: its spans and counters then describe one
    pass over the schedule.
    """
    count = 1 if ctx.tracer is not None else REPLAYS[workload]
    setups = -(-MIN_SETUPS // count)
    passes = []
    for _ in range(count):
        # Every replay starts from the same collector state, as a fresh
        # process would: the previous replay's garbage is gone, what is
        # left alive is frozen out of the collector's sight, and the second
        # collection leaves its books empty.  Full collections then fall on
        # the same ops in every replay, where a segment-wise total keeps them.
        gc.collect()
        gc.freeze()
        gc.collect()
        done = once(setups)
        gc.unfreeze()
        if ctx.tracer is None:
            done.user_deltas = None  # only a traced run sizes them; 100k keys a replay
        passes.append(done)
    return passes


def _p99s(times: Dict[str, List[float]]) -> Dict[str, float]:
    """The 99th latency percentiles of one replay, over its whole sample.

    Reads exist on the serving tier only, and a p99 is a metric only where
    the percentile rule supports it (ten samples beyond it).
    """
    timings: Dict[str, float] = {}
    for verb in ("put", "get"):
        ordered = sorted(times.get(verb, []))
        if stats.supported(len(ordered), 0.99):
            timings[f"{verb}_p99_ms"] = stats.percentile(ordered, 0.99) * 1e3
    return timings


def _least_total(replays: Sequence[Sequence[float]], segment: int) -> float:
    """Total time of a schedule, each segment at its least over the replays.

    ``replays`` are the durations of the same events in the same order,
    once per replay.  Cut into segments of ``segment`` consecutive events,
    each segment counts with the least time any replay spent in it, and
    all of them are summed: one replay gives its plain total.
    """
    length = min(len(durations) for durations in replays)
    return sum(
        min(sum(durations[start:start + segment]) for durations in replays)
        for start in range(0, length, segment)
    )


def _fold_times(
    replays: Sequence[Dict[str, List[float]]], drain_rounds: float, segment_ops: int
) -> Dict[str, float]:
    """The rates and median latencies of a run, over all its replays."""
    folded: Dict[str, float] = {}
    ops = op_s = 0.0
    for verb in ("put", "get"):
        samples = [times.get(verb, []) for times in replays]
        least = sorted(map(min, zip(*samples)))  # each op at its least
        if least:
            folded[f"{verb}_p50_ms"] = stats.percentile(least, 0.50) * 1e3
        ops += len(least)
        op_s += _least_total(samples, segment_ops)
    rounds = [times["round"] for times in replays]
    # The closing drain is one more segment; its rounds count as rounds.
    round_s = _least_total(rounds, 1) + min(sum(times["drain"]) for times in replays)
    folded["ops_per_s"] = ops / op_s
    folded["rounds_per_s"] = (len(rounds[0]) + drain_rounds) / round_s
    return folded


def _tails(times: Dict[str, List[float]]) -> Dict[str, Any]:
    """Sample counts and the ungated tails of one replay."""
    extra: Dict[str, Any] = {}
    for verb in ("put", "get"):
        ordered = sorted(times.get(verb, []))
        extra[f"{verb}_samples"] = len(ordered)
        if not ordered:
            continue
        tail = stats.highest_supported_percentile(len(ordered))
        if tail is not None:
            extra[f"{verb}_tail"] = {"q": tail, "ms": stats.percentile(ordered, tail) * 1e3}
        extra[f"{verb}_p999_ms"] = stats.percentile(ordered, 0.999) * 1e3
        extra[f"{verb}_max_ms"] = ordered[-1] * 1e3
    extra.update(round_s=sum(times["round"]), drain_s=sum(times["drain"]))
    return extra


def _result(passes: Sequence[Pass], *, replays_repeat_exactly: bool) -> CellResult:
    """Fold a run's replays into its metrics.

    Rates and median latencies: over all replays, segment by segment
    (:func:`_fold_times`); where the replays repeat exactly a segment is
    one op.  Tails and phase walls: the best replay's value, metric by
    metric.  Byte and memory metrics: on the in-process workloads every
    replay must repeat them exactly, which is an oracle of its own; the
    serving tier's differ by when the controller's polls catch the
    replicas, and report the median.
    """
    last = passes[-1]
    e2e = {
        name: (max if BETTER[name] == "higher" else min)(p.timings[name] for p in passes)
        for name in last.timings
    }
    e2e.update(
        {name: statistics.median(p.exact[name] for p in passes) for name in last.exact}
    )
    drain_rounds = e2e.pop("drain_rounds")
    e2e.update(
        _fold_times(
            [p.times for p in passes],
            drain_rounds,
            segment_ops=1 if replays_repeat_exactly else SEGMENT_OPS,
        )
    )
    e2e.update(
        setup_s=statistics.median(wall for p in passes for wall in p.setup_walls),
        peak_rss_mb=(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            + max(p.replica_rss_mb for p in passes)
        ),
    )
    oracle = {name: all(p.oracle[name] for p in passes) for name in last.oracle}
    oracle["replays_agree"] = all(
        p.attempted == last.attempted
        and p.timings.keys() == last.timings.keys()
        and all(len(p.times[name]) == len(last.times[name]) for name in last.times)
        and (not replays_repeat_exactly or p.exact == last.exact)
        for p in passes
    )
    extra = dict(
        last.extra,
        replays=len(passes),
        setups=sum(len(p.setup_walls) for p in passes),
        drain_rounds=drain_rounds,
    )
    return CellResult(
        e2e=e2e,
        counters=last.counters,
        extra=extra,
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        oracle=oracle,
        replay_wall_s=statistics.median(p.wall_s for p in passes),
        replica_layers=last.replica_layers,
        replica_spans=last.replica_spans,
        user_deltas=last.user_deltas,
    )


def _scaled(base: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(base * scale))


def _proc_status_kb(pid: int, field_name: str) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` in seconds, read from outside."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _collector_counters(metrics) -> Dict[str, float]:
    return {
        "net.messages": metrics.message_count,
        "net.payload_bytes": metrics.total_payload_bytes(),
        "net.metadata_bytes": metrics.total_metadata_bytes(),
    }


def _store_counters(cluster) -> Dict[str, float]:
    """Scheduler and WAL counters of a KV cluster (in-process or proc)."""
    scheduler = cluster.scheduler_stats()
    wal = cluster.wal_stats()
    probes = scheduler.get("probes", 0)
    committed = wal.get("wal_committed_bytes", 0)
    counters = {
        "kv.antientropy.probes": probes,
        "kv.antientropy.repairs": scheduler.get("repairs", 0),
        "kv.antientropy.repair_payload_bytes": scheduler.get("repair_payload_bytes", 0),
        "kv.antientropy.repair_metadata_bytes": scheduler.get("repair_metadata_bytes", 0),
        "kv.antientropy.deferred": scheduler.get("deferred", 0),
        # Useful work: repairs that shipped payload per probe sent.
        "kv.antientropy.probe_hit_ratio": (
            scheduler.get("repairs", 0) / probes if probes else 0.0
        ),
        "wal.committed_bytes": committed,
        "wal.replayed_bytes": wal.get("wal_replayed_bytes", 0),
    }
    counters.update(_collector_counters(cluster.metrics))
    return counters


# ----------------------------------------------------------------------
# paper-micro
# ----------------------------------------------------------------------


class SeededGMapWorkload(GMapWorkload):
    """Table I ``gmap-K`` with the seed choosing who refreshes what.

    The paper's schedule has no randomness; the benchmark contract wants
    inputs made from ``--seed``.  The seed rotates the keyspace and the
    assignment of slices to nodes.  The mesh is a circulant graph, so a
    rotation is a symmetry of it: every seed replays the same amount and
    shape of work on different keys and nodes, and what is left of the
    seed-to-seed spread is the machine's, not the input's.
    """

    def __init__(self, n_nodes: int, percent: int, rounds: int, seed: int) -> None:
        super().__init__(n_nodes, percent, rounds)
        rng = random.Random(seed)
        self._key_offset = rng.randrange(self.total_keys)
        self._node_offset = rng.randrange(n_nodes)

    def key(self, index: int) -> str:
        return super().key(index + self._key_offset)

    def node_slice(self, round_index: int, node: int) -> List[str]:
        return super().node_slice(round_index, (node + self._node_offset) % self.n_nodes)


@dataclass
class _MicroCell:
    """The whole ``paper-micro`` schedule under one algorithm."""

    times: Dict[str, List[float]]
    drain_rounds: int
    converged: bool
    cluster: Cluster


def run_paper_micro(seed: int, scale: float, ctx: RunContext) -> CellResult:
    rounds = _scaled(MICRO_ROUNDS, scale, floor=10)
    config = ClusterConfig(topology=partial_mesh(MICRO_NODES, MICRO_DEGREE))

    def build():
        workload = SeededGMapWorkload(MICRO_NODES, MICRO_PERCENT, rounds, seed)
        for name in MICRO_ALGORITHMS:  # warm-up replay on throwaway clusters
            scratch = Cluster(config, ALGORITHMS[name], workload.bottom())
            scratch.run_rounds(min(5, rounds), workload.updates_for)
            scratch.drain()
        return workload

    def cell(name: str, workload: SeededGMapWorkload) -> _MicroCell:
        cluster = Cluster(config, ALGORITHMS[name], workload.bottom())
        put: List[float] = []
        round_walls: List[float] = []
        for round_index in range(rounds):
            for node in range(MICRO_NODES):
                for mutator in workload.updates_for(round_index, node):
                    started = _clock()
                    cluster.apply_update(node, mutator)
                    put.append(_clock() - started)
            started = _clock()
            cluster.run_round(None)
            round_walls.append(_clock() - started)
        started = _clock()
        drain_rounds = cluster.drain()
        converged = cluster.converged()
        drain_s = _clock() - started
        times = {"put": put, "round": round_walls, "drain": [drain_s]}
        return _MicroCell(times, drain_rounds, converged, cluster)

    cells: Dict[str, _MicroCell] = {}

    def once(setups: int) -> Pass:
        workload, setup_walls = _timed_setups(build, lambda built: None, setups)
        started = _clock()
        bprr = cells[MICRO_ALGORITHMS[0]] = cell(MICRO_ALGORITHMS[0], workload)
        wall_s = _clock() - started
        metrics = bprr.cluster.metrics
        return Pass(
            setup_walls=setup_walls,
            times=bprr.times,
            timings=dict(_p99s(bprr.times), converge_s=sum(bprr.times["drain"])),
            wall_s=wall_s,
            exact={
                "wire_bytes_per_update": metrics.total_bytes() / len(bprr.times["put"]),
                "mem_bytes_avg": metrics.average_memory_bytes(),
                "drain_rounds": bprr.drain_rounds,
            },
            oracle={"converged": bprr.converged},
            counters=_collector_counters(metrics),
            extra=dict(_tails(bprr.times), rounds=rounds),
            attempted=len(bprr.times["put"]),
        )

    # The replayed and reported cell is BP+RR, the paper's algorithm ...
    result = _result(_replay("paper-micro", ctx, once), replays_repeat_exactly=True)
    # ... and classic delta and state-based run once on the identical
    # schedule, as its byte and CPU baselines.
    workload = SeededGMapWorkload(MICRO_NODES, MICRO_PERCENT, rounds, seed)
    for name in MICRO_ALGORITHMS[1:]:
        cells[name] = cell(name, workload)
        result.attempted += len(cells[name].times["put"])
    bprr = cells[MICRO_ALGORITHMS[0]]
    total_bytes = {name: done.cluster.metrics.total_bytes() for name, done in cells.items()}
    result.e2e["tx_ratio_vs_state"] = (
        total_bytes[MICRO_ALGORITHMS[0]] / total_bytes["state-based"]
    )
    final = bprr.cluster.nodes[0].state
    result.oracle["baselines_converged"] = all(done.converged for done in cells.values())
    result.oracle["final_states_equal"] = all(
        done.cluster.nodes[0].state == final for done in cells.values()
    )
    result.counters["sync.cpu_ratio_classic_vs_bprr"] = (
        cells["delta-based"].cluster.metrics.total_processing_seconds()
        / bprr.cluster.metrics.total_processing_seconds()
    )
    result.extra.update(
        cell_drain_rounds={name: done.drain_rounds for name, done in cells.items()},
        total_bytes=total_bytes,
    )
    return result


# ----------------------------------------------------------------------
# store-sim-100k and tcp-faults: KVCluster in process
# ----------------------------------------------------------------------


class _KVDriver:
    """Issues timed writes against an in-process ``KVCluster`` and times its rounds."""

    def __init__(self, cluster: KVCluster, ctx: RunContext) -> None:
        self.cluster = cluster
        self.put: List[float] = []
        self.expected = DeltaJoin(keep_deltas=ctx.tracer is not None)
        self.round_walls: List[float] = []

    def write(self, node: int, update) -> None:
        cluster = self.cluster
        started = _clock()
        if node in cluster.down:
            # The pre-routed owner is crashed: route like the smart
            # client does, to the key's first live owner.
            delta = cluster.update(update.key, update.op, *update.args)
        else:
            delta = cluster.apply_update(node, update)
        self.put.append(_clock() - started)
        self.expected.add(delta)

    def round(self, workload, round_index: int) -> None:
        """One interval: the round's writes, then one sync."""
        for node in range(workload.n_nodes):
            for update in workload.updates_for(round_index, node):
                self.write(node, update)
        started = _clock()
        self.cluster.run_round(None)
        self.round_walls.append(_clock() - started)

    def oracle(self) -> Dict[str, bool]:
        cluster = self.cluster
        return {
            "converged": cluster.converged(),
            "keyspace_is_join_of_deltas": (
                cluster.merged_keyspace() == self.expected.keyspace()
            ),
        }


def _warm_kv(transport: str, seed: int) -> None:
    """Warm-up on a throwaway miniature of the measured cluster."""
    ring = HashRing(range(4), n_shards=8, replication=REPLICATION)
    scratch = KVCluster(
        ring,
        keyed_bp_rr,
        antientropy=AntiEntropyConfig(repair_interval=1, repair_fanout=8, repair_mode="digest"),
        transport=transport,
        recovery="wal",
    )
    try:
        workload = KVZipfWorkload(ring, 3, 8, keys=64, seed=seed)
        scratch.run_rounds(workload.rounds, workload.updates_for)
        scratch.drain()
    finally:
        scratch.close()


def run_store_sim_100k(seed: int, scale: float, ctx: RunContext) -> CellResult:
    steady_rounds = _scaled(STORE_STEADY_ROUNDS, scale, floor=2)

    def build():
        ring = HashRing(range(STORE_REPLICAS), n_shards=STORE_SHARDS, replication=REPLICATION)
        cluster = KVCluster(
            ring,
            keyed_bp_rr,
            antientropy=AntiEntropyConfig(
                repair_interval=2, repair_fanout=STORE_SHARDS, repair_mode="digest"
            ),
            recovery="wal",
            wal_storage=lambda replica: MemoryStorage(),
        )
        workload = KVZipfWorkload(
            ring, steady_rounds, STORE_OPS_PER_NODE,
            keys=STORE_KEYS, zipf_coefficient=1.0, seed=seed,
        )
        _warm_kv("sim", seed)
        return cluster, workload

    def once(setups: int) -> Pass:
        (cluster, workload), setup_walls = _timed_setups(
            build, lambda built: built[0].close(), setups
        )
        try:
            began = _clock()
            driver = _KVDriver(cluster, ctx)
            expected = driver.expected
            # populate: one driver-issued write per key, routed like a
            # smart client (first live owner).
            update = cluster.update
            put = driver.put
            for index in range(STORE_KEYS):
                started = _clock()
                delta = update(f"set:k{index}", "add", index ^ seed)
                put.append(_clock() - started)
                expected.add(delta)
            # flush: two empty rounds ship the backlog to the co-owners.
            started = _clock()
            cluster.run_round(None)
            cluster.run_round(None)
            flush_s = _clock() - started
            started = _clock()
            flushed = cluster.converged()
            check_s = _clock() - started
            # steady: Zipf traffic, one sync per round.
            for round_index in range(steady_rounds):
                driver.round(workload, round_index)
            started = _clock()
            drain_rounds = cluster.drain()
            drain_s = _clock() - started
            wall_s = _clock() - began
            oracle = driver.oracle()
            oracle["converged_after_flush"] = flushed
            times = {"put": put, "round": driver.round_walls, "drain": [drain_s]}
            populate_s = sum(put[:STORE_KEYS])
            return Pass(
                setup_walls=setup_walls,
                times=times,
                timings=dict(
                    _p99s(times),
                    # The divergence here is the populate backlog: converged
                    # again once the flush rounds have shipped it.
                    converge_s=flush_s + check_s,
                    local_writes_per_s=STORE_KEYS / populate_s,
                    backlog_flush_s=flush_s,
                ),
                wall_s=wall_s,
                exact={
                    "wire_bytes_per_update": cluster.metrics.total_bytes() / len(put),
                    "mem_bytes_avg": cluster.metrics.average_memory_bytes(),
                    "drain_rounds": drain_rounds,
                },
                oracle=oracle,
                counters=_store_counters(cluster),
                extra=dict(_tails(times), steady_rounds=steady_rounds, populate_s=populate_s),
                attempted=len(put),
                user_deltas=expected,
            )
        finally:
            cluster.close()

    return _result(_replay("store-sim-100k", ctx, once), replays_repeat_exactly=True)


def run_tcp_faults(seed: int, scale: float, ctx: RunContext) -> CellResult:
    rounds = _scaled(TCP_ROUNDS, scale, floor=9)

    def build():
        ring = HashRing(range(TCP_REPLICAS), n_shards=TCP_SHARDS, replication=REPLICATION)
        cluster = KVCluster(
            ring,
            keyed_bp_rr,
            antientropy=AntiEntropyConfig(
                repair_interval=3, repair_fanout=16, repair_mode="digest"
            ),
            transport="tcp",
            recovery="wal",
        )
        workload = KVZipfWorkload(
            ring, rounds, TCP_OPS_PER_NODE,
            keys=TCP_KEYS, zipf_coefficient=1.0, seed=seed,
        )
        _warm_kv("tcp", seed)
        return cluster, workload

    def once(setups: int) -> Pass:
        (cluster, workload), setup_walls = _timed_setups(
            build, lambda built: built[0].close(), setups
        )
        try:
            began = _clock()
            driver = _KVDriver(cluster, ctx)
            # The seeded schedule of experiments.kv_sweep.run_kv_repair_cell,
            # driven phase by phase so each phase can be timed.
            phase = max(1, rounds // 3)
            victim = TCP_REPLICAS - 1
            for round_index in range(phase):  # healthy
                driver.round(workload, round_index)
            cluster.partition(range(TCP_REPLICAS // 2))
            for round_index in range(phase, 2 * phase):  # writes on both sides
                driver.round(workload, round_index)
            cluster.heal()
            started = _clock()
            cluster.crash(victim, lose_state=True)
            crash_s = _clock() - started
            for round_index in range(2 * phase, rounds):  # victim down
                driver.round(workload, round_index)
            started = _clock()
            cluster.recover(victim)
            recover_s = _clock() - started
            started = _clock()
            drain_rounds = cluster.drain()
            drain_s = _clock() - started
            wall_s = _clock() - began
            counters = _store_counters(cluster)
            times = {"put": driver.put, "round": driver.round_walls, "drain": [drain_s]}
            return Pass(
                setup_walls=setup_walls,
                times=times,
                timings=dict(_p99s(times), converge_s=crash_s + recover_s + drain_s),
                wall_s=wall_s,
                exact={
                    "wire_bytes_per_update": cluster.metrics.total_bytes() / len(driver.put),
                    "mem_bytes_avg": cluster.metrics.average_memory_bytes(),
                    "repair_bytes": (
                        counters["kv.antientropy.repair_payload_bytes"]
                        + counters["kv.antientropy.repair_metadata_bytes"]
                    ),
                    "drain_rounds": drain_rounds,
                },
                oracle=driver.oracle(),
                counters=counters,
                extra=dict(
                    _tails(times),
                    rounds=rounds,
                    crash_s=crash_s,
                    recover_s=recover_s,
                    messages_severed=cluster.messages_severed,
                    messages_blocked=cluster.messages_blocked,
                ),
                attempted=len(driver.put),
                user_deltas=driver.expected,
            )
        finally:
            cluster.close()

    return _result(_replay("tcp-faults", ctx, once), replays_repeat_exactly=True)


# ----------------------------------------------------------------------
# serve-mixed and serve-quorum-write: ProcessCluster + KVClient
# ----------------------------------------------------------------------


class TimedClient:
    """The slice of ``KVClient`` that ``LoadGenerator`` drives, timed.

    ``perf_counter`` sits directly around ``client.put`` / ``client.get``;
    the deltas ``put`` returns feed the oracle's expected keyspace.
    """

    def __init__(self, client: KVClient, ctx: RunContext) -> None:
        self.client = client
        self.put_s: List[float] = []
        self.get_s: List[float] = []
        self.expected = DeltaJoin(keep_deltas=ctx.tracer is not None)

    @property
    def stats(self) -> Dict[str, int]:
        return self.client.stats

    def put(self, key, op, *args):
        started = _clock()
        delta = self.client.put(key, op, *args)
        self.put_s.append(_clock() - started)
        if isinstance(delta, MapLattice):
            self.expected.add(delta)
        return delta

    def get(self, key):
        started = _clock()
        value = self.client.get(key)
        self.get_s.append(_clock() - started)
        return value


@dataclass
class _ServeSetup:
    cluster: ProcessCluster
    client: KVClient
    timed: TimedClient
    run_dir: str


def _serve_teardown(built: _ServeSetup) -> None:
    built.client.close()
    built.cluster.close()
    shutil.rmtree(built.run_dir, ignore_errors=True)


def _run_serve(
    workload: str,
    seed: int,
    scale: float,
    ctx: RunContext,
    *,
    r: int,
    w: int,
    write_ratio: float,
    base_ops: int,
) -> CellResult:
    measured_ops = _scaled(base_ops, scale, floor=2 * SERVE_ROUND_EVERY)
    run_dirs = iter(range(1 << 30))
    errors: List[str] = []

    def on_error(exc: Exception) -> None:
        errors.append(f"{type(exc).__name__}: {exc}")

    def build() -> _ServeSetup:
        run_dir = os.path.join(ctx.scratch, f"serve-{os.getpid()}-{next(run_dirs)}")
        cluster = ProcessCluster(
            SERVE_REPLICAS,
            shards=SERVE_SHARDS,
            replication=REPLICATION,
            recovery="wal",  # file WALs, no fsync: the shipped policy
            run_dir=run_dir,
        )
        try:
            client = KVClient(
                cluster.client_addresses(),
                shards=SERVE_SHARDS,
                replication=REPLICATION,
                r=r,
                w=w,
                route="random",
                seed=seed,
            )
            timed = TimedClient(client, ctx)
            LoadGenerator(
                timed, keys=SERVE_KEYS, write_ratio=write_ratio,
                zipf_coefficient=1.0, seed=seed ^ 0x3A3, on_error=on_error,
            ).run(SERVE_WARMUP_OPS)
        except BaseException:
            cluster.close()
            raise
        return _ServeSetup(cluster, client, timed, run_dir)

    def once(setups: int) -> Pass:
        errors_before = len(errors)
        built, setup_walls = _timed_setups(build, _serve_teardown, setups)
        cluster, client, timed = built.cluster, built.client, built.timed
        try:
            # Warm-up latencies are not measured.
            warm_ops = len(timed.put_s) + len(timed.get_s)
            timed.put_s, timed.get_s = [], []
            pids = [int(cluster.stat(replica)["pid"]) for replica in cluster.replicas]
            cpu_before = sum(_proc_cpu_s(pid) for pid in pids)
            generator = LoadGenerator(
                timed, keys=SERVE_KEYS, write_ratio=write_ratio,
                zipf_coefficient=1.0, seed=seed, on_error=on_error,
            )
            round_walls: List[float] = []
            probe_acks = 0
            began = _clock()
            for index in range(1, measured_ops + 1):
                generator.run_op()
                if index % SERVE_PROBE_EVERY == 0:
                    try:
                        client.put("gct:probe", "increment", 1)
                        probe_acks += 1
                    except Exception as exc:  # counted, then judged by the oracle
                        on_error(exc)
                # The final stretch is left unsynced on purpose: it is the
                # divergence the closing drain has to converge.
                if index % SERVE_ROUND_EVERY == 0 and index < measured_ops:
                    started = _clock()
                    cluster.run_round(None)
                    round_walls.append(_clock() - started)
            started = _clock()
            drain_rounds = cluster.drain()
            drain_s = _clock() - started
            wall_s = _clock() - began
            cpu_s = sum(_proc_cpu_s(pid) for pid in pids) - cpu_before
            replica_rss_mb = sum(_proc_status_kb(pid, "VmHWM") for pid in pids) / 1024.0

            failures = errors[errors_before:]
            ops = len(timed.put_s) + len(timed.get_s)
            oracle = _serve_oracle(cluster, timed, probe_acks, failures, seed)
            wire = cluster.metrics.total_payload_bytes() + cluster.metrics.total_metadata_bytes()
            counters = _store_counters(cluster)
            counters.update(
                {
                    "serve.replica.cpu_s": cpu_s,
                    "serve.replica.cpu_us_per_op": cpu_s * 1e6 / max(1, ops),
                    "serve.client.stale_session_reads": client.stats["stale_session_reads"],
                    "serve.client.read_repairs": client.stats["read_repairs"],
                }
            )
            times = {
                "put": timed.put_s, "get": timed.get_s, "round": round_walls, "drain": [drain_s],
            }
            result = Pass(
                setup_walls=setup_walls,
                times=times,
                timings=dict(_p99s(times), converge_s=drain_s),
                wall_s=wall_s,
                exact={
                    "wire_bytes_per_update": wire / (len(timed.put_s) + probe_acks),
                    "mem_bytes_avg": cluster.metrics.average_memory_bytes(),
                    "drain_rounds": drain_rounds,
                },
                oracle=oracle,
                counters=counters,
                extra=dict(
                    _tails(times),
                    measured_ops=measured_ops,
                    warmup_ops=warm_ops,
                    rounds=len(round_walls),
                    probe_acks=probe_acks,
                    replica_client_ops=sum(
                        int(cluster.stat(rep).get("client_ops", 0)) for rep in cluster.replicas
                    ),
                    errors=failures[:5],
                    client_stats=dict(client.stats),
                ),
                attempted=ops + len(failures) + probe_acks,
                failed=len(failures),
                replica_rss_mb=replica_rss_mb,
                user_deltas=timed.expected,
            )
        finally:
            _serve_teardown(built)
        if ctx.tracer is not None:
            result.replica_layers, result.replica_spans = _collect_replica_spans(pids)
        return result

    return _result(_replay(workload, ctx, once), replays_repeat_exactly=False)


def _serve_oracle(
    cluster: ProcessCluster,
    timed: TimedClient,
    probe_acks: int,
    errors: List[str],
    seed: int,
) -> Dict[str, bool]:
    """No errors, an exact acked counter, and a full-quorum sample."""
    expected = timed.expected.entries
    written = sorted(expected, key=repr)
    sample = random.Random(seed ^ 0x0A11).sample(
        written, min(SERVE_SAMPLE_KEYS, len(written))
    )
    with KVClient(
        cluster.client_addresses(),
        shards=SERVE_SHARDS,
        replication=REPLICATION,
        r=REPLICATION,
        w=1,
        read_repair=False,
    ) as reader:
        probe_value = reader.get("gct:probe") if probe_acks else 0
        sample_ok = all(reader.get_lattice(key) == expected[key] for key in sample)
    return {
        "no_errors": not errors,
        "converged": cluster.converged(),
        "acked_counter_exact": probe_value == probe_acks,
        "quorum_sample_is_join_of_deltas": sample_ok,
    }


def _collect_replica_spans(pids: Sequence[int]):
    """Merge the span dumps the measured cluster's replicas left at exit.

    The throwaway clusters of the repeated set-up dump too; only the
    pids of the measured cluster are merged.  Returns the summed
    aggregates and the recorded spans, each tagged with its origin.
    """
    span_dir = os.environ.get(tracing.SPAN_DIR_ENV, "")
    parts = []
    spans: List[Dict[str, Any]] = []
    for pid in pids:
        path = os.path.join(span_dir, f"replica-{pid}.json")
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8") as handle:
            dump = json.load(handle)
        parts.append(dump["aggregate"])
        for span in dump["spans"]:
            span["origin"] = f"replica-pid-{pid}"
            spans.append(span)
    return tracing.merge_aggregates(parts), spans


def run_serve_mixed(seed: int, scale: float, ctx: RunContext) -> CellResult:
    return _run_serve(
        "serve-mixed", seed, scale, ctx, r=1, w=1, write_ratio=0.5, base_ops=SERVE_MIXED_OPS
    )


def run_serve_quorum_write(seed: int, scale: float, ctx: RunContext) -> CellResult:
    return _run_serve(
        "serve-quorum-write", seed, scale, ctx,
        r=2, w=2, write_ratio=0.9, base_ops=SERVE_QUORUM_OPS,
    )


CELLS: Dict[str, Callable[[int, float, RunContext], CellResult]] = {
    "paper-micro": run_paper_micro,
    "store-sim-100k": run_store_sim_100k,
    "tcp-faults": run_tcp_faults,
    "serve-mixed": run_serve_mixed,
    "serve-quorum-write": run_serve_quorum_write,
}

"""The per-shard append-only log and its per-replica manager.

Record format — one record per appended delta, self-delimiting and
individually checksummed so a torn tail is detected instead of decoded
as garbage::

    record := uvarint(len(body)) body u32be(crc32(body))
    body   := repro.codec.encode(delta)        # canonical lattice bytes

Three operations define the log's semantics:

* **stage/commit** — appends *stage* the delta value itself in memory
  (lattice values are immutable, so holding the reference is holding
  the delta); :meth:`ShardLog.commit` encodes the staged values in
  staging order and persists them as one batch (the store commits once
  per synchronization tick).  That is group commit: one storage append
  per shard per tick, however many deltas the tick produced, and the
  codec runs at the tick rather than on the write path — a batch a
  crash discards is never encoded.  A crash loses whatever was staged
  and not yet committed — which is the honest durability contract of
  any group-committing WAL, and exactly what the recovery experiments
  measure (the lost tail is the divergence digest repair must still
  cover).
* **replay** — decode every valid record and join them.  Join order is
  irrelevant (associativity/commutativity/idempotence of the lattice
  join), which is what makes a *log* a sufficient representation of a
  *state*: ``replay(log) == ⊔ deltas``.  A record whose length prefix,
  checksum, or body fails to parse ends the valid prefix; the corrupt
  tail is counted, truncated away, and replay returns the join of the
  clean prefix.
* **compact** — replace every record with the single record encoding
  their join.  No log-structured-merge machinery: because the join *is*
  the aggregation, ``replay(compact(log)) == replay(log)`` holds by
  construction, and compaction is crash-safe because the storage's
  atomic ``replace`` never shows a torn state.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.codec import CodecError, Cursor, decode, encode, read_uvarint, write_uvarint
from repro.lattice.base import Lattice
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import WAL_COMMIT, WAL_COMPACT, WAL_REPLAY, Tracer
from repro.wal.storage import MemoryStorage, Storage

#: Bytes of the per-record checksum trailer.
CRC_BYTES = 4

#: Once a shard log's committed size exceeds this, the next commit folds
#: it into the single record of its join (:meth:`ShardLog.compact`).
#: Read at commit time, so a test may patch it on the module.
COMPACT_BYTES = 64 * 1024

#: The ``wal.*`` counters every shard log of a replica adds to
#: (``KVDriver.wal_stats`` sums the namespace, prefix stripped).
SHARD_COUNTERS = (
    "wal_records",
    "wal_commits",
    "wal_committed_bytes",
    "wal_compactions",
    "wal_corrupt_tails",
    "wal_discarded_records",
    "wal_fences",
)
#: The replica-level counters: bytes and shards restored by replay.
REPLAY_COUNTERS = ("wal_replayed_bytes", "wal_replays")


class WalFencedError(RuntimeError):
    """An append reached a shard log fenced by a rebalance handoff."""


def pack_record(*bodies: bytes) -> bytes:
    """Frame encoded deltas as self-delimiting, checksummed records.

    One body gives one record; several give their records back to back,
    framed straight into one buffer (a group commit's batch).
    """
    out = bytearray()
    for body in bodies:
        write_uvarint(out, len(body))
        out += body
        out += struct.pack(">I", zlib.crc32(body))
    return bytes(out)


def _parse_records(data: bytes) -> Tuple[List[Tuple[bytes, int]], int, bool]:
    """``([(body, end_offset), ...], clean_length, corrupt)`` of an image."""
    records: List[Tuple[bytes, int]] = []
    cur = Cursor(data)
    clean = 0
    while cur.remaining:
        try:
            body = cur.take(read_uvarint(cur))
            trailer = cur.take(CRC_BYTES)
        except CodecError:
            return records, clean, True
        if struct.unpack(">I", trailer)[0] != zlib.crc32(body):
            return records, clean, True
        clean = cur.pos
        records.append((body, clean))
    return records, clean, False


def unpack_records(data: bytes) -> Tuple[List[bytes], int, bool]:
    """Parse the valid record prefix of a log image.

    Returns ``(bodies, clean_length, corrupt)``: the record bodies of
    the longest valid prefix, how many bytes of ``data`` that prefix
    spans, and whether anything (a torn append, a flipped bit) follows
    it.  Parsing never raises — a log is read during crash recovery,
    where the torn tail is the expected case, not the exceptional one.
    """
    records, clean, corrupt = _parse_records(data)
    return [body for body, _ in records], clean, corrupt


class ShardLog:
    """Append-only log of deltas for one shard of one replica.

    ``registry`` holds the log's :data:`SHARD_COUNTERS` (a private one
    when omitted); the shard logs of one replica share its registry, so
    the counters sum over them.  ``observer`` is the log's hook into the
    structured trace: a callable ``(event_type, nbytes)`` invoked on
    each group commit (:data:`~repro.obs.trace.WAL_COMMIT`, batch
    bytes) and successful compaction
    (:data:`~repro.obs.trace.WAL_COMPACT`, folded image bytes).
    ``None`` — the default — keeps the write path free of any tracing
    cost.
    """

    def __init__(
        self,
        storage: Storage,
        name: str,
        *,
        registry: Optional[MetricsRegistry] = None,
        observer: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self.storage = storage
        self.name = name
        self.registry = registry if registry is not None else MetricsRegistry()
        self.observer = observer
        #: Delta values staged since the last group commit, in staging
        #: order; :meth:`commit` encodes them.
        self._staged: List[Lattice] = []
        #: Committed log size in bytes (lazily synced from storage, so
        #: a log reopened over existing content sizes itself correctly).
        self._size: Optional[int] = None
        #: Pre-existing content has been checked against replay's
        #: validity boundary (framing, CRC, decodability).  Set by the
        #: first replay or commit; appending *before* truncating an
        #: inherited bad tail would strand the new records behind junk
        #: the next replay cannot cross.
        self._tail_validated = False
        #: Byte size of the last single-record image the join produced
        #: (successful compaction or a failed attempt).  The commit
        #: trigger waits until the log doubles past it: once the joined
        #: state itself outgrows the threshold, re-deriving the image —
        #: a full decode-join-encode — every commit would buy nothing.
        self._compact_floor = 0
        #: Set when a rebalance handed this shard to another replica:
        #: the log was truncated and refuses appends until the shard is
        #: owned here again (:meth:`unfence`).
        self.fenced = False
        self._count = self.registry.counters("wal.", SHARD_COUNTERS)

    # ------------------------------------------------------------------
    # The write path: stage, group-commit, compact.
    # ------------------------------------------------------------------

    def stage(self, delta: Lattice) -> None:
        """Buffer one delta value for the next group commit.

        The value is encoded by :meth:`commit`, not here: a write pays
        only for the append, and a batch a crash discards is never
        encoded.  A fenced log refuses the value at once.
        """
        if self.fenced:
            raise WalFencedError(
                f"shard log {self.name!r} is fenced (ownership was handed "
                "off); unfence on re-acquisition before appending"
            )
        self._staged.append(delta)

    def discard_staged(self) -> int:
        """Drop staged-but-uncommitted records (what a crash loses)."""
        dropped = len(self._staged)
        self._count["wal_discarded_records"].inc(dropped)
        self._staged.clear()
        return dropped

    @property
    def staged_records(self) -> int:
        return len(self._staged)

    def size_bytes(self) -> int:
        """Committed log size in bytes."""
        if self._size is None:
            self._size = len(self.storage.read(self.name))
        return self._size

    def commit(self) -> int:
        """Encode the staged batch and persist it as one append; maybe compact.

        Each staged value becomes one record, in staging order, framed
        straight into a single batch buffer.  A value the codec rejects
        raises :class:`~repro.codec.UnsupportedType` before storage is
        touched, and the batch stays staged.

        Returns the number of bytes written for the batch.
        """
        if not self._staged:
            return 0
        batch = pack_record(*map(encode, self._staged))
        if not self._tail_validated:
            # Reopening over an image a previous process tore: truncate
            # the junk *before* appending, or the new records would sit
            # unreachable behind it.  Replay's truncation boundary is
            # the authoritative one — it requires records to *decode*,
            # not merely frame and checksum — so a record replay would
            # reject never ends up in front of freshly committed ones.
            self.replay()
        self.storage.append(self.name, batch)
        self._count["wal_records"].inc(len(self._staged))
        self._count["wal_commits"].inc()
        self._count["wal_committed_bytes"].inc(len(batch))
        # replay always ran first, so _size is set.
        self._size += len(batch)
        self._staged.clear()
        if self.observer is not None:
            self.observer(WAL_COMMIT, len(batch))
        if self._size > max(COMPACT_BYTES, 2 * self._compact_floor):
            self.compact()
        return len(batch)

    def compact(self) -> bool:
        """Fold every record into the single record of their join.

        Compaction *is* the lattice join: the replacement record decodes
        to exactly the state the full log replays to, so recovery after
        compaction is indistinguishable from recovery before it.  The
        swap goes through the storage's atomic ``replace``, so a crash
        mid-compaction leaves the original records intact.

        Returns ``True`` when the log was rewritten.
        """
        state = self.replay()
        if state is None:
            return False
        record = pack_record(encode(state))
        current = self.size_bytes()
        self._compact_floor = len(record)
        if current <= len(record):
            # Nothing to fold away: the floor above keeps routine
            # commits from re-deriving this result until the log has
            # doubled past the joined image.
            return False
        self.storage.replace(self.name, record)
        self._size = len(record)
        self._count["wal_compactions"].inc()
        if self.observer is not None:
            self.observer(WAL_COMPACT, len(record))
        return True

    # ------------------------------------------------------------------
    # Rebalance: segment export and ownership fencing.
    # ------------------------------------------------------------------

    def export_records(self) -> List[bytes]:
        """The committed log as encoded delta bodies, compacted first.

        The handoff path of a ring rebalance: the returned bodies are
        exactly what a ``kv-handoff-segment`` ships, and the receiver's
        ``⊔ decode(body)`` equals this log's :meth:`replay` — the log
        *is* the state, so shipping the (compacted) log ships the shard.
        A fenced log exports nothing: its content was already handed
        off, and re-exporting it would resurrect stale ownership.
        """
        if self.fenced:
            return []
        # Fold the history into the single record of its join when that
        # pays; a log already smaller than its joined image ships as-is.
        self.compact()
        bodies, _, _ = unpack_records(self.storage.read(self.name))
        return bodies

    def fence(self, truncate: bool = True) -> None:
        """Seal the log after this replica stopped owning the shard.

        Truncates the committed image and drops anything staged, so a
        later re-add of this replica cannot replay deltas from an
        ownership it no longer holds — the receiving owner's log is the
        authoritative continuation.  Appends raise
        :class:`WalFencedError` until :meth:`unfence`.
        """
        self._staged.clear()
        if truncate:
            self.storage.replace(self.name, b"")
            self._size = 0
            self._tail_validated = True
            self._compact_floor = 0
        self.fenced = True
        self._count["wal_fences"].inc()

    def unfence(self) -> None:
        """Reopen the log: the replica owns the shard again."""
        self.fenced = False

    # ------------------------------------------------------------------
    # The read path: recovery replay.
    # ------------------------------------------------------------------

    def replay(self) -> Optional[Lattice]:
        """The join of every committed delta (``None`` for an empty log).

        A corrupt or truncated tail — a group commit torn by the crash
        this log exists to survive — is detected by the record checksums,
        truncated away (so later appends never chain onto junk), and the
        clean prefix is replayed.  A record that passes its CRC but no
        longer *decodes* (a writer bug, codec drift across reopens) ends
        the valid prefix the same way instead of aborting recovery.
        """
        data = self.storage.read(self.name)
        records, clean, corrupt = _parse_records(data)
        state: Optional[Lattice] = None
        decoded_end = 0
        for body, end in records:
            try:
                delta = decode(body)
            except CodecError:
                corrupt, clean = True, decoded_end
                break
            state = delta if state is None else state.join(delta)
            decoded_end = end
        if corrupt:
            self.storage.replace(self.name, data[:clean])
            self._count["wal_corrupt_tails"].inc()
        self._size = clean
        self._tail_validated = True
        return state

    def __repr__(self) -> str:
        return f"ShardLog(name={self.name!r}, staged={len(self._staged)})"


class ReplicaWal:
    """One replica's write-ahead log: one :class:`ShardLog` per shard.

    The object deliberately outlives the store incarnation writing to
    it — the cluster keeps it per replica index, hands it to every
    rebuilt :class:`~repro.kv.store.KVStore`, and recovery replays it
    into the fresh shard synchronizers.  ``crash(lose_state=True)``
    therefore models losing memory and process state while the log
    device survives, which is the failure the paper's join-decomposition
    argument makes cheap to recover from.

    Every count lands in ``registry`` under ``wal.*`` — the replica's
    :class:`~repro.obs.metrics.MetricsRegistry`, which the scheduler
    counts in too (a private one when omitted).
    """

    def __init__(
        self,
        replica: int,
        storage: Optional[Storage] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.replica = replica
        self.storage = storage if storage is not None else MemoryStorage()
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Structured trace destination; shard logs get per-shard
        #: observer closures over it (``None`` = tracing off).
        self.tracer = tracer
        self._logs: Dict[int, ShardLog] = {}
        # Every wal.* key is declared up front, so a snapshot holds them
        # all before the first shard log opens.
        self._count = self.registry.counters("wal.", SHARD_COUNTERS + REPLAY_COUNTERS)

    def _observer_for(self, shard: int) -> Optional[Callable[[str, int], None]]:
        if self.tracer is None:
            return None

        def observe(event_type: str, nbytes: int) -> None:
            self.tracer.emit(
                event_type,
                replica=self.replica,
                shard=shard,
                payload_bytes=nbytes,
            )

        return observe

    def log(self, shard: int) -> ShardLog:
        """The shard's log (one file/blob per shard, created lazily)."""
        entry = self._logs.get(shard)
        if entry is None:
            name = f"r{self.replica:03d}-s{shard:05d}.wal"
            entry = ShardLog(
                self.storage,
                name,
                registry=self.registry,
                observer=self._observer_for(shard),
            )
            self._logs[shard] = entry
        return entry

    # ------------------------------------------------------------------
    # Write path.
    # ------------------------------------------------------------------

    def append(self, shard: int, delta: Lattice) -> None:
        """Stage one delta value for the shard's next group commit.

        The delta is encoded when :meth:`commit` runs, not here.
        """
        self.log(shard).stage(delta)

    def commit(self) -> int:
        """Group-commit every shard's staged batch; returns bytes written."""
        return sum(log.commit() for log in self._logs.values())

    def discard_staged(self) -> int:
        """Drop all staged records — the crash boundary of group commit."""
        return sum(log.discard_staged() for log in self._logs.values())

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------

    def replay(self, shard: int) -> Optional[Lattice]:
        """Replay one shard's log; accounts the bytes read for reports."""
        log = self.log(shard)
        state = log.replay()
        if state is not None:
            self._count["wal_replayed_bytes"].inc(log.size_bytes())
            self._count["wal_replays"].inc()
            if self.tracer is not None:
                self.tracer.emit(
                    WAL_REPLAY,
                    replica=self.replica,
                    shard=shard,
                    payload_bytes=log.size_bytes(),
                )
        return state

    def compact(self, shard: int) -> bool:
        return self.log(shard).compact()

    # ------------------------------------------------------------------
    # Rebalance handoff.
    # ------------------------------------------------------------------

    def export_segment(self, shard: int) -> List[bytes]:
        """The shard's compacted log as handoff-ready record bodies.

        Group-commits the shard's staged records first, so the segment
        covers everything up to the moment of export — the handoff must
        ship the writes of the current tick, not just the last commit.
        """
        log = self.log(shard)
        log.commit()
        return log.export_records()

    def fence(self, shard: int) -> None:
        """Seal and truncate the shard's log after an ownership handoff."""
        self.log(shard).fence()

    def unfence(self, shard: int) -> None:
        """Reopen the shard's log when ownership returns to this replica."""
        self.log(shard).unfence()

    def __repr__(self) -> str:
        return f"ReplicaWal(replica={self.replica}, shards={sorted(self._logs)})"

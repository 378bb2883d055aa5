"""WAL invariants: replay = join, compaction = join, torn tails drop.

The write-ahead log's correctness rests on lattice algebra, so the
load-bearing guarantees are property-tested across every serializable
lattice family:

* **replay** — ``replay(log) == ⊔ appended deltas``: the log is a
  complete representation of the state, whatever order and granularity
  the deltas arrived in;
* **compaction** — ``replay(compact(log)) == replay(log)``: folding the
  records into the single record of their join loses nothing, because
  compaction *is* the join;
* **durability boundary** — group commit means staged records are
  invisible to replay until committed and gone after a crash
  (``discard_staged``); a committed batch torn mid-write (truncated or
  bit-flipped tail) is detected by the record CRCs, dropped cleanly,
  and never poisons later appends;
* **crash-mid-compaction** — the atomic-replace contract: recovery
  after a compaction that died before its rename replays the original
  records.
"""

import errno
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import UnsupportedType, encode
from repro.lattice import MapLattice, MaxElements, SetLattice
from repro.wal import (
    FileStorage,
    MemoryStorage,
    ReplicaWal,
    ShardLog,
    pack_record,
    unpack_records,
)
from repro.wal import log as wal_log
from repro.wal import storage as wal_storage
from repro.wal.storage import StorageLockError

from conftest import ALL_LATTICE_STRATEGIES

#: MaxElements has no wire format (its order is an arbitrary function).
SERIALIZABLE_FAMILIES = sorted(set(ALL_LATTICE_STRATEGIES) - {"MaxElements"})


def delta_batches(family):
    """1-8 deltas of one family — a shard's worth of WAL appends."""
    return st.lists(ALL_LATTICE_STRATEGIES[family], min_size=1, max_size=8)


def count(owner, name):
    """A ``wal.*`` counter of a log's or a replica WAL's registry (every
    test here writes one shard, so the replica's sums are the log's)."""
    return owner.registry.counter("wal." + name).value


def join_all(deltas):
    state = deltas[0]
    for delta in deltas[1:]:
        state = state.join(delta)
    return state


# ---------------------------------------------------------------------------
# Replay and compaction properties, per lattice family.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", SERIALIZABLE_FAMILIES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_replay_is_the_join_of_appended_deltas(family, data):
    deltas = data.draw(delta_batches(family))
    wal = ReplicaWal(0)
    for delta in deltas:
        wal.append(7, delta)
    wal.commit()
    assert wal.replay(7) == join_all(deltas)


@pytest.mark.parametrize("family", SERIALIZABLE_FAMILIES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_compaction_preserves_replay(family, data):
    """The acceptance property: replay(compact(log)) == replay(log)."""
    deltas = data.draw(delta_batches(family))
    wal = ReplicaWal(0)
    for delta in deltas:
        wal.append(3, delta)
    wal.commit()
    before = wal.replay(3)
    wal.compact(3)
    assert wal.replay(3) == before
    # Idempotent: compacting a compacted log changes nothing.
    wal.compact(3)
    assert wal.replay(3) == before


@pytest.mark.parametrize("family", SERIALIZABLE_FAMILIES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_replay_order_and_batching_are_irrelevant(family, data):
    """One commit per delta == one commit for all deltas == reversed."""
    deltas = data.draw(delta_batches(family))
    batched, unbatched, reversed_ = ReplicaWal(0), ReplicaWal(1), ReplicaWal(2)
    for delta in deltas:
        batched.append(0, delta)
        unbatched.append(0, delta)
        unbatched.commit()
    for delta in reversed(deltas):
        reversed_.append(0, delta)
    batched.commit()
    reversed_.commit()
    assert batched.replay(0) == unbatched.replay(0) == reversed_.replay(0)


# ---------------------------------------------------------------------------
# Group commit: the durability boundary.
# ---------------------------------------------------------------------------


class TestGroupCommit:
    def test_staged_records_are_invisible_until_commit(self):
        wal = ReplicaWal(0)
        wal.append(0, SetLattice({"a"}))
        assert wal.replay(0) is None
        wal.commit()
        assert wal.replay(0) == SetLattice({"a"})

    def test_discard_staged_is_the_crash_boundary(self):
        wal = ReplicaWal(0)
        wal.append(0, SetLattice({"durable"}))
        wal.commit()
        wal.append(0, SetLattice({"lost"}))
        assert wal.discard_staged() == 1
        wal.commit()
        assert wal.replay(0) == SetLattice({"durable"})
        assert count(wal, "wal_discarded_records") == 1

    def test_commit_batches_one_append_per_shard(self):
        storage = MemoryStorage()
        wal = ReplicaWal(0, storage=storage)
        for i in range(5):
            wal.append(1, SetLattice({f"e{i}"}))
        wal.commit()
        assert count(wal, "wal_commits") == 1
        assert count(wal, "wal_records") == 5

    def test_shards_have_independent_logs(self):
        wal = ReplicaWal(0)
        wal.append(0, SetLattice({"zero"}))
        wal.append(1, SetLattice({"one"}))
        wal.commit()
        assert wal.replay(0) == SetLattice({"zero"})
        assert wal.replay(1) == SetLattice({"one"})


# ---------------------------------------------------------------------------
# Staged values: the log encodes at commit.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", SERIALIZABLE_FAMILIES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_committed_image_is_the_records_of_the_staged_values(family, data):
    """Staging values and committing writes exactly the records of
    their encodings, in staging order — the record format of a log that
    was fed encoded bytes."""
    deltas = data.draw(delta_batches(family))
    log = ShardLog(MemoryStorage(), "s.wal")
    for delta in deltas:
        log.stage(delta)
    expected = b"".join(pack_record(encode(delta)) for delta in deltas)
    assert log.commit() == len(expected)
    assert log.storage.read(log.name) == expected
    assert (count(log, "wal_records"), count(log, "wal_committed_bytes")) == (
        len(deltas),
        len(expected),
    )
    assert log.replay() == join_all(deltas)


class TestEncodeAtCommit:
    def test_an_unencodable_value_fails_the_commit_and_stays_staged(self):
        log = ShardLog(MemoryStorage(), "s.wal")
        log.stage(SetLattice({"durable"}))
        log.commit()
        image = log.storage.read(log.name)
        log.stage(SetLattice({"fine"}))
        log.stage(MaxElements({4}, dominates=lambda x, y: x % y == 0))
        with pytest.raises(UnsupportedType):
            log.commit()
        assert log.storage.read(log.name) == image
        assert (count(log, "wal_records"), count(log, "wal_commits")) == (1, 1)
        assert log.staged_records == 2
        assert log.discard_staged() == 2
        assert log.commit() == 0
        assert log.replay() == SetLattice({"durable"})

    def test_a_discarded_batch_is_never_encoded(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            wal_log, "encode", lambda value: (calls.append(value), encode(value))[1]
        )
        wal = ReplicaWal(0)
        for element in ("a", "b", "c"):
            wal.append(0, SetLattice({element}))
        assert wal.discard_staged() == 3
        assert wal.commit() == 0
        assert calls == []


# ---------------------------------------------------------------------------
# Torn and corrupt tails.
# ---------------------------------------------------------------------------


class TestCorruptTail:
    def committed(self, *elements):
        wal = ReplicaWal(0)
        for element in elements:
            wal.append(0, SetLattice({element}))
        wal.commit()
        return wal, wal.log(0)

    def test_truncated_tail_record_is_dropped(self):
        wal, log = self.committed("a", "b", "c")
        image = wal.storage.read(log.name)
        wal.storage.replace(log.name, image[:-3])  # tear the last record
        log._size = None
        assert wal.replay(0) == SetLattice({"a", "b"})
        assert count(log, "wal_corrupt_tails") == 1

    def test_bit_flip_in_tail_is_caught_by_crc(self):
        wal, log = self.committed("a", "b")
        image = bytearray(wal.storage.read(log.name))
        image[-5] ^= 0xFF  # flip a byte inside the last record body
        wal.storage.replace(log.name, bytes(image))
        log._size = None
        assert wal.replay(0) == SetLattice({"a"})
        assert count(log, "wal_corrupt_tails") == 1

    def test_junk_appended_after_commit_is_dropped(self):
        wal, log = self.committed("a")
        wal.storage.append(log.name, b"\x07garbage")
        assert wal.replay(0) == SetLattice({"a"})

    def test_truncation_repairs_the_log_for_future_appends(self):
        """The corrupt tail is physically removed, so later commits
        never chain records onto junk bytes."""
        wal, log = self.committed("a", "b")
        wal.storage.append(log.name, b"torn!")
        assert wal.replay(0) == SetLattice({"a", "b"})
        wal.append(0, SetLattice({"c"}))
        wal.commit()
        assert wal.replay(0) == SetLattice({"a", "b", "c"})
        assert count(log, "wal_corrupt_tails") == 1

    def test_unpack_reports_the_clean_prefix(self):
        records = pack_record(b"one") + pack_record(b"two")
        bodies, clean, corrupt = unpack_records(records + b"\xff")
        assert bodies == [b"one", b"two"]
        assert clean == len(records)
        assert corrupt
        bodies, clean, corrupt = unpack_records(records)
        assert bodies == [b"one", b"two"] and not corrupt

    def test_commit_over_an_inherited_torn_tail_truncates_first(self):
        """A reopened log with a torn tail is repaired before the first
        append — otherwise the new (CRC-valid) records would sit behind
        junk that no replay can cross, silently losing them."""
        wal, log = self.committed("a")
        wal.storage.append(log.name, b"torn-by-previous-process")

        reopened = ReplicaWal(0, storage=wal.storage)
        reopened.append(0, SetLattice({"b"}))
        reopened.commit()  # must truncate the junk before appending
        assert reopened.replay(0) == SetLattice({"a", "b"})
        assert count(reopened, "wal_corrupt_tails") == 1

    def test_crc_valid_but_undecodable_record_ends_the_prefix(self):
        """A record that passes its checksum but no longer decodes must
        drop like a torn tail, not abort crash recovery."""
        wal, log = self.committed("a", "b")
        wal.storage.append(log.name, pack_record(b"\x99not-a-lattice"))
        wal.append(0, SetLattice({"after"}))
        wal.commit()  # commits behind the bad record
        assert wal.replay(0) == SetLattice({"a", "b"})  # prefix only
        assert count(log, "wal_corrupt_tails") == 1
        # The bad record (and what sat behind it) was truncated away, so
        # later commits land on a clean image again.
        wal.append(0, SetLattice({"c"}))
        wal.commit()
        assert wal.replay(0) == SetLattice({"a", "b", "c"})

    def test_reopen_over_an_undecodable_record_truncates_before_append(self):
        """Tail validation uses replay's boundary (decodability, not
        just CRC), so a commit after reopen never lands behind a record
        the next replay would reject."""
        wal, log = self.committed("a", "b")
        wal.storage.append(log.name, pack_record(b"\x99not-a-lattice"))

        reopened = ReplicaWal(0, storage=wal.storage)
        reopened.append(0, SetLattice({"after-reopen"}))
        reopened.commit()
        assert reopened.replay(0) == SetLattice({"a", "b", "after-reopen"})
        assert count(reopened, "wal_corrupt_tails") == 1

    def test_whole_log_corrupt_replays_to_nothing(self):
        wal, log = self.committed("a")
        wal.storage.replace(log.name, b"\x99\x99\x99")
        log._size = None
        assert wal.replay(0) is None
        assert wal.storage.read(log.name) == b""


# ---------------------------------------------------------------------------
# Compaction mechanics and crash-safety.
# ---------------------------------------------------------------------------


class TestCompaction:
    def test_threshold_triggers_compaction_on_commit(self, monkeypatch):
        monkeypatch.setattr(wal_log, "COMPACT_BYTES", 64)
        wal = ReplicaWal(0)
        for i in range(12):
            wal.append(0, SetLattice({f"element-{i}"}))
        wal.commit()
        log = wal.log(0)
        assert count(log, "wal_compactions") >= 1
        assert log.size_bytes() <= count(log, "wal_committed_bytes")
        assert wal.replay(0) == SetLattice({f"element-{i}" for i in range(12)})

    def test_compaction_shrinks_redundant_logs(self):
        """Overlapping deltas (the common case: RR extraction off, or
        repeated repair absorptions) fold into one small image."""
        wal = ReplicaWal(0)
        for _ in range(20):
            wal.append(0, MapLattice({"k": SetLattice({"v"})}))
        wal.commit()
        log = wal.log(0)
        before = log.size_bytes()
        assert wal.compact(0)
        assert log.size_bytes() < before
        assert wal.replay(0) == MapLattice({"k": SetLattice({"v"})})

    def test_compacting_an_empty_log_is_a_noop(self):
        wal = ReplicaWal(0)
        assert not wal.compact(0)

    def test_compaction_attempts_amortize_once_the_state_outgrows_the_threshold(
        self, monkeypatch
    ):
        """A joined image larger than the threshold must not trigger a
        fresh decode-join-encode on every subsequent commit; the
        trigger waits until the log doubles past the last image."""
        monkeypatch.setattr(wal_log, "COMPACT_BYTES", 64)
        elements = {f"element-{i:04d}" for i in range(30)}
        wal = ReplicaWal(0)
        for element in sorted(elements):
            wal.append(0, SetLattice({element}))
        wal.commit()
        log = wal.log(0)
        assert count(log, "wal_compactions") == 1  # folded once on the way in...
        assert log.size_bytes() > 64  # ...and the image stays oversized
        assert log._compact_floor == log.size_bytes()

        attempts = []
        original = ShardLog.compact
        monkeypatch.setattr(
            ShardLog, "compact", lambda s: (attempts.append(1), original(s))[1]
        )
        wal.append(0, SetLattice({"one-more"}))
        wal.commit()
        assert attempts == []  # below 2× the image: no re-derivation
        assert wal.replay(0) == SetLattice(elements | {"one-more"})

    def test_crash_mid_compaction_replays_the_original(self, tmp_path):
        """A compaction that died before its atomic rename leaves the
        temp file behind and the original records intact; recovery
        ignores the temp file and replays the full log."""
        storage = FileStorage(str(tmp_path))
        wal = ReplicaWal(0, storage=storage)
        deltas = [SetLattice({f"e{i}"}) for i in range(6)]
        for delta in deltas:
            wal.append(0, delta)
        wal.commit()
        name = wal.log(0).name
        # Simulate the crash: the compacted image was fully written to
        # the temp file, but the process died before os.replace.
        compacted = pack_record(encode(wal.replay(0)))
        (tmp_path / (name + ".tmp")).write_bytes(compacted)

        recovered = ReplicaWal(0, storage=FileStorage(str(tmp_path)))
        state = recovered.replay(0)
        assert state == SetLattice({f"e{i}" for i in range(6)})
        assert count(recovered, "wal_records") == 0  # reopened, not rewritten
        # And the interrupted compaction can simply run again.
        assert recovered.compact(0)
        assert recovered.replay(0) == state


# ---------------------------------------------------------------------------
# Storage backends.
# ---------------------------------------------------------------------------


class TestStorage:
    def test_file_storage_survives_reopen(self, tmp_path):
        first = ReplicaWal(4, storage=FileStorage(str(tmp_path)))
        first.append(2, SetLattice({"x"}))
        first.append(9, MapLattice({"k": SetLattice({"y"})}))
        first.commit()

        second = ReplicaWal(4, storage=FileStorage(str(tmp_path)))
        assert second.replay(2) == SetLattice({"x"})
        assert second.replay(9) == MapLattice({"k": SetLattice({"y"})})

    def test_file_storage_hides_temp_files(self, tmp_path):
        storage = FileStorage(str(tmp_path))
        storage.append("a.wal", b"data")
        (tmp_path / "b.wal.tmp").write_bytes(b"half-written")
        assert storage.names() == ("a.wal",)

    def test_file_storage_rejects_traversal_names(self, tmp_path):
        storage = FileStorage(str(tmp_path))
        for bad in ("../escape", "", ".hidden", "a/b"):
            with pytest.raises(ValueError):
                storage.read(bad)

    def test_memory_storage_replace_and_remove(self):
        storage = MemoryStorage()
        storage.append("log", b"one")
        storage.append("log", b"two")
        assert storage.read("log") == b"onetwo"
        storage.replace("log", b"three")
        assert storage.read("log") == b"three"
        storage.remove("log")
        assert storage.read("log") == b""
        assert storage.names() == ()

    def test_missing_name_reads_empty(self, tmp_path):
        assert MemoryStorage().read("nope") == b""
        assert FileStorage(str(tmp_path)).read("nope.wal") == b""


class TestStorageLock:
    """``FileStorage(lock=True)``: one holder per directory, and a
    construction that fails after taking the ``flock`` gives it back."""

    def test_second_opener_fails_until_the_holder_releases(self, tmp_path):
        holder = FileStorage(str(tmp_path), lock=True)
        with pytest.raises(StorageLockError, match=f"pid {os.getpid()}"):
            FileStorage(str(tmp_path), lock=True)
        holder.release_lock()
        successor = FileStorage(str(tmp_path), lock=True)
        assert successor.locked
        successor.release_lock()

    def test_a_failed_pid_stamp_gives_the_lock_back(self, tmp_path, monkeypatch):
        real_open = open

        def open_on_a_full_disk(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)

            def write(text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            handle.write = write
            return handle

        with monkeypatch.context() as patch:
            patch.setattr(wal_storage, "open", open_on_a_full_disk, raising=False)
            with pytest.raises(OSError) as failed:
                FileStorage(str(tmp_path), lock=True)
        assert failed.value.errno == errno.ENOSPC
        # ``failed`` keeps the traceback, so the constructor's frame and
        # its handle stay alive: only an explicit close drops the flock.
        reopened = FileStorage(str(tmp_path), lock=True)
        assert reopened.locked
        reopened.release_lock()


class TestConfig:
    def test_shard_log_repr_and_size_cache(self):
        log = ShardLog(MemoryStorage(), "r000-s00000.wal")
        assert "r000-s00000.wal" in repr(log)
        assert log.size_bytes() == 0

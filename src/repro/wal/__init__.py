"""Per-shard write-ahead logging of encoded deltas, compaction = join.

The paper's central object — the join decomposition — makes durability
almost embarrassingly simple, and this package is the demonstration.  A
state-based CRDT is the join of the deltas that ever inflated it; the
:mod:`repro.codec` wire format gives every such delta one canonical
byte string.  So a *log of encoded deltas* is a complete, replayable
representation of a replica's shard state:

* **append** — every delta that crosses a shard (a local typed write,
  a δ-group absorbed from a peer, a repair absorption) is staged as a
  value, then encoded and group-committed once per synchronization
  tick, one CRC-guarded record each (:class:`~repro.wal.log.ShardLog`);
* **replay** — ``⊔ decode(record)`` over the log rebuilds the shard
  state exactly; order does not matter because join is associative,
  commutative, and idempotent;
* **compact** — when a log outgrows ``repro.wal.log.COMPACT_BYTES``
  (64 KiB), its records are replaced by the single record of their join.  There is no
  log-structured-merge machinery because *compaction is the lattice
  join*: ``replay(compact(log)) == replay(log)`` is a theorem of the
  lattice, not a property the implementation has to fight for.  The
  swap rides the storage backend's atomic replace, so a crash
  mid-compaction recovers the uncompacted records.

Storage is injectable (:class:`~repro.wal.storage.Storage`):
:class:`~repro.wal.storage.MemoryStorage` keeps the deterministic
simulator deterministic and fast, :class:`~repro.wal.storage.
FileStorage` writes real segment files with temp-file + ``os.replace``
atomicity.  :class:`~repro.wal.log.ReplicaWal` bundles one log per
owned shard and survives ``crash(lose_state=True)`` rebuilds, which is
what lets :mod:`repro.kv` recover a reset replica by *local replay
first, divergence-driven repair for the remainder* instead of paying
the network to rebuild state the replica already proved it held.
"""

from repro.wal.log import (
    CRC_BYTES,
    ReplicaWal,
    ShardLog,
    WalFencedError,
    pack_record,
    unpack_records,
)
from repro.wal.storage import FileStorage, MemoryStorage, Storage, StorageLockError

__all__ = [
    "CRC_BYTES",
    "FileStorage",
    "MemoryStorage",
    "ReplicaWal",
    "ShardLog",
    "Storage",
    "StorageLockError",
    "WalFencedError",
    "pack_record",
    "unpack_records",
]

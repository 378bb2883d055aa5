"""The repair exchange: blanket pushes and divergence-driven digest repair.

Algorithm 1 clears δ-buffers on send, so a δ-group lost to a crashed
peer or a severed link is gone; repair restores convergence after
partitions and crash-recovery the way Dynamo-style stores run
background anti-entropy next to the fast delta path.  Everything about
it lives here — when to repair, what crosses the wire, what a receiver
does with it, and the counters that account it — behind one
:class:`RepairPlane` per store.  Two modes
(:attr:`~repro.kv.antientropy.AntiEntropyConfig.repair_mode`):

* ``"blanket"``: every ``repair_interval`` ticks the next
  ``repair_fanout`` shards (round-robin) push their full shard state to
  the other owners — simple, correct, and exactly the redundant
  transmission the paper exists to eliminate;
* ``"digest"`` (divergence-driven): the plane tracks, per (shard, peer)
  **δ-path**, how many ticks have passed since the path last shipped or
  absorbed a delta, plus *suspicion* raised when a send to the peer was
  refused (crash / severed link).  A δ-path that stays cold for
  ``repair_interval`` ticks triggers a digest probe instead of a state
  push.

Digest-mode repair is a two-round-trip exchange per divergent δ-path;
``A`` is the probing replica, ``B`` the peer:

  1. A → B  ``kv-digest``  root(A)           — O(hash); match ⇒ done
  2. B → A  ``kv-diff``    digest(B)         — fingerprints only
  3. A → B  ``kv-repair``  (Δ_B, digest(A))  — what B misses, + echo
  4. B → A  ``kv-repair``  (Δ_A, None)       — what A misses

* ``kv-digest`` is one root hash over the shard's irreducible-set
  digest (:func:`repro.sync.digest.root_of`, ``ROOT_BYTES``).  A
  receiver whose root matches stays silent.
* ``kv-diff`` is the mismatch escalation: the responder's
  irreducible-set digest (8-byte fingerprints, :mod:`repro.sync.
  digest`), from which the initiator computes exactly the
  decomposition the responder lacks (the ConflictSync shape: Gomes et
  al., PAPERS.md).
* ``kv-repair`` is repair content, ``(delta, echo-digest | None)``.
  The initiator ships the missing delta plus its own digest so the
  responder can answer with the reverse delta; blanket mode uses the
  same kind with the full shard state and no echo.

Both deltas are inflating join decompositions computed against the
other side's digest; no message ever carries redundant state.  Every
step on either side is a read of the shard's one fingerprint index
(:class:`repro.sync.digest.IncrementalDigest`, behind
:meth:`~repro.kv.shard.Shard.root`, :meth:`~repro.kv.shard.Shard.
fingerprints` and :meth:`~repro.kv.shard.Shard.missing`): the probe
that starts an exchange has already warmed it, so steps 2–4 fingerprint
nothing, skip a key the peer fully holds for one set look-up per
fingerprint, ship a key the peer wholly lacks as the value object it
is, and decompose only values the peer holds part of.
Absorption goes through :meth:`repro.kv.shard.Shard.absorb`, so every
inner protocol's bookkeeping stays truthful about repaired content and
the inflation reaches the log.

Repair traffic is accounted by its *receiver*: a push or probe refused
by a down peer or severed link never reaches a handler and never
counts, so the repair-byte comparison reflects what actually crossed
the wire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.kv.antientropy import declare_counters
from repro.lattice.base import Lattice
from repro.obs.trace import REPAIR_ABSORB, REPAIR_DIFF, REPAIR_PROBE
from repro.sync.digest import FINGERPRINT_BYTES, ROOT_BYTES
from repro.sync.protocol import Message

if TYPE_CHECKING:
    from repro.kv.store import KVStore

#: One (shard, peer) pair: the route deltas of that shard take to that
#: co-owner.
Path = Tuple[int, int]


def _probe_message(root: bytes) -> Message:
    return Message(
        kind="kv-digest",
        payload=root,
        payload_units=0,
        payload_bytes=0,
        metadata_bytes=ROOT_BYTES,
        metadata_units=1,
    )


def _diff_message(digest) -> Message:
    return Message(
        kind="kv-diff",
        payload=digest,
        payload_units=0,
        payload_bytes=0,
        metadata_bytes=len(digest) * FINGERPRINT_BYTES,
        metadata_units=len(digest),
    )


def _repair_message(delta: Lattice, echo) -> Message:
    return Message(
        kind="kv-repair",
        payload=(delta, echo),
        payload_units=delta.size_units(),
        payload_bytes=delta.size_bytes(),
        metadata_bytes=len(echo) * FINGERPRINT_BYTES if echo is not None else 0,
        metadata_units=len(echo) if echo is not None else 0,
    )


class RepairPlane:
    """One store's repair state: δ-path clocks, suspicion, the exchange.

    Reads the protocol clock and the knobs from ``store.scheduler`` and
    the shard copies from ``store.shards``.

    *Coldness* probes use a pair tiebreak — only the lower-id side of a
    replica pair initiates — because the exchange repairs both
    directions, and symmetric divergence would otherwise make both
    sides probe in the same tick and ship every delta twice.
    Suspicion overrides the tiebreak: a blocked send is evidence only
    its observer holds, and ongoing traffic from the peer can keep the
    other side's coldness clock warm forever, so the suspecting replica
    must probe regardless of id order.
    """

    #: repairs — repair payloads absorbed (blanket pushes + digest-diff
    #: deltas); probes — digest probes received; repair_*_bytes —
    #: repair-path bytes that reached this replica (payload; roots and
    #: digests).  read_repair* — client-pushed repair (the
    #: ``repro.serve`` quorum path), kept apart so the quorum experiment
    #: can report read-repair traffic separately.
    COUNTERS = (
        "repairs",
        "probes",
        "repair_payload_bytes",
        "repair_metadata_bytes",
        "read_repairs",
        "read_repair_payload_bytes",
    )

    def __init__(self, store: "KVStore") -> None:
        self.store = store
        self._cursor = 0
        #: δ-path → tick it last shipped/absorbed a delta.
        self._last_delta: Dict[Path, int] = {}
        #: δ-path → tick of the last digest probe we initiated.
        self._last_probe: Dict[Path, int] = {}
        #: δ-paths whose peer refused a send (crash / severed link).
        self._suspect: Set[Path] = set()
        self._count = declare_counters(store.registry, self.COUNTERS)
        self._index_paths()
        #: inner wire kind → handler, merged into the store's demux table.
        self.handlers = {
            "kv-digest": self._on_probe,
            "kv-diff": self._on_diff,
            "kv-repair": self._on_repair,
        }

    def _index_paths(self) -> None:
        """(Re)derive the path index from the store's hosted shards."""
        self._shard_ids: Tuple[int, ...] = tuple(sorted(self.store.shards))
        # Reverse index ``peer → shards shared with it``, so suspicion
        # marking touches only the peer's own δ-paths.  A partitioned
        # replica takes one refused send per peer per tick; without the
        # index each refusal re-scanned every hosted shard.
        reverse: Dict[int, List[int]] = {}
        for shard in self._shard_ids:
            for peer in self.store.shards[shard].neighbors:
                reverse.setdefault(peer, []).append(shard)
        self._peer_shards: Dict[int, Tuple[int, ...]] = {
            peer: tuple(shared) for peer, shared in reverse.items()
        }

    def _paths(self) -> Set[Path]:
        return {
            (shard, peer)
            for peer, shards in self._peer_shards.items()
            for shard in shards
        }

    # ------------------------------------------------------------------
    # Signals: δ-path activity, peer reachability, membership.
    # ------------------------------------------------------------------

    def note_delta_activity(self, shard: int, peer: int) -> None:
        """A delta was shipped to — or absorbed from — ``peer`` for ``shard``."""
        self._last_delta[(shard, peer)] = self.store.scheduler.tick
        self._suspect.discard((shard, peer))

    def note_peer_unreachable(self, peer: int) -> None:
        """A send to ``peer`` was refused; suspect every shared δ-path.

        Suspect paths are probed as soon as the link heals instead of
        waiting out the full coldness threshold.  O(shards shared with
        the peer) — this fires once per peer per tick for as long as a
        partition lasts.
        """
        for shard in self._peer_shards.get(peer, ()):
            self._suspect.add((shard, peer))

    def suspect_all_paths(self) -> None:
        """Mark every δ-path suspect (the ``wal+repair`` recovery policy).

        A store rebuilt from its WAL can *believe* its replay but not
        prove the peers agree; suspicion makes the next planning tick
        root-probe every co-owner regardless of the pair tiebreak, so
        any divergence the log could not cover (its torn tail, writes
        absorbed elsewhere during the downtime) surfaces immediately.
        """
        self._suspect |= self._paths()

    def note_read_repair(self, payload_bytes: int) -> None:
        """Account client-pushed repair state absorbed at this replica."""
        self._count["read_repairs"].inc()
        self._count["read_repair_payload_bytes"].inc(payload_bytes)

    def apply_membership(self, suspect_paths: Sequence[Path] = ()) -> None:
        """Follow the store's hosted-shard set after a ring rebalance.

        δ-path clocks survive for every (shard, peer) pair that exists
        on both sides of the change; paths that appear — a gained shard,
        or a moved shard's new co-owner — start *warm* (as if a delta
        had just flowed), giving the handoff exchange one full coldness
        interval to ship its segment before digest probes escalate and
        re-ship the same content as repair deltas.  ``suspect_paths``
        overrides warmth for the pairs the store knows diverged — the
        surviving co-owner pairs of a regrouped shard, whose pending
        δ-buffers the regroup discarded.
        """
        old_paths = self._paths()
        self._index_paths()
        live_paths = self._paths()
        self._last_delta = {
            path: tick for path, tick in self._last_delta.items() if path in live_paths
        }
        self._last_probe = {
            path: tick for path, tick in self._last_probe.items() if path in live_paths
        }
        self._suspect &= live_paths
        for path in live_paths - old_paths:
            self._last_delta[path] = self.store.scheduler.tick
        self._suspect.update(path for path in suspect_paths if path in live_paths)
        self._cursor = self._cursor % len(self._shard_ids) if self._shard_ids else 0

    # ------------------------------------------------------------------
    # The sending side: what repair puts on the wire this tick.
    # ------------------------------------------------------------------

    def due(self) -> List[Tuple[int, int, Message]]:
        """This tick's repair transmissions as ``(dst, shard, message)``.

        Call once per tick, after the scheduler's ``plan``.  Repair is
        exempt from the send budget (see ``AntiEntropyConfig``).
        """
        config = self.store.scheduler.config
        if not config.repair_interval or not self._shard_ids:
            return []
        if config.repair_mode == "blanket":
            return self._blanket_pushes(config.repair_interval, config.repair_fanout)
        return self._probes(config.repair_interval, config.repair_fanout)

    def _blanket_pushes(self, interval: int, fanout: int):
        """Timer-driven: every ``interval`` ticks, the next fanout shards."""
        if self.store.scheduler.tick % interval != 0:
            return []
        wire: List[Tuple[int, int, Message]] = []
        n = len(self._shard_ids)
        for _ in range(min(fanout, n)):
            shard = self.store.shards[self._shard_ids[self._cursor % n]]
            self._cursor += 1
            if shard.state.is_bottom:
                continue
            push = _repair_message(shard.state, None)
            wire.extend((dst, shard.id, push) for dst in shard.neighbors)
        return wire

    def _probes(self, interval: int, fanout: int):
        """Divergence-driven: probe δ-paths cold or suspect for ≥ interval.

        A probe is itself rate-limited to one per δ-path per interval,
        so an already-synchronized shard costs one root digest per
        interval and nothing more.  Fanout caps probed shards per tick,
        rotating a cursor so every cold shard eventually gets its turn.
        """
        wire: List[Tuple[int, int, Message]] = []
        tick = self.store.scheduler.tick
        replica = self.store.replica
        n = len(self._shard_ids)
        scanned = 0
        picked = 0
        while scanned < n and picked < fanout:
            shard = self._shard_ids[(self._cursor + scanned) % n]
            scanned += 1
            cold_peers = []
            for peer in self.store.shards[shard].neighbors:
                path = (shard, peer)
                suspect = path in self._suspect
                if not suspect and peer < replica:
                    continue  # cold probes: the lower-id side initiates
                if tick - self._last_probe.get(path, -interval) < interval:
                    continue  # probed recently; give the exchange time
                if suspect or tick - self._last_delta.get(path, 0) >= interval:
                    cold_peers.append(peer)
                    self._last_probe[path] = tick
                    self._suspect.discard(path)
            if cold_peers:
                probe = _probe_message(self.store.shards[shard].root())
                wire.extend((dst, shard, probe) for dst in cold_peers)
                picked += 1
        self._cursor = (self._cursor + scanned) % n
        return wire

    # ------------------------------------------------------------------
    # The receiving side.
    # ------------------------------------------------------------------

    def _account(self, message: Message) -> None:
        self._count["repair_payload_bytes"].inc(message.payload_bytes)
        self._count["repair_metadata_bytes"].inc(message.metadata_bytes)

    def _on_probe(self, src: int, shard_id: int, message: Message) -> Optional[Message]:
        """Step 1 → 2: compare roots; answer a mismatch with our digest."""
        shard = self.store.hosted(shard_id)
        if shard is None:
            return None
        self._count["probes"].inc()
        self._account(message)
        match = shard.root() == message.payload
        self.store.trace(
            REPAIR_PROBE,
            shard=shard_id,
            peer=src,
            metadata_bytes=message.metadata_bytes,
            extra={"match": match},
        )
        if match:
            # In sync with the prober: refresh the δ-path clock so we
            # do not immediately counter-probe a healthy pair.
            self.note_delta_activity(shard_id, src)
            return None
        return _diff_message(shard.fingerprints())

    def _on_diff(self, src: int, shard_id: int, message: Message) -> Optional[Message]:
        """Step 2 → 3: the peer diverges; ship what it misses plus our
        own digest so it can answer with the reverse delta.  Both are
        reads of the shard's fingerprint index: no decomposition pass
        on a warm one."""
        shard = self.store.hosted(shard_id)
        if shard is None:
            return None
        self._account(message)
        self.store.trace(
            REPAIR_DIFF,
            shard=shard_id,
            peer=src,
            metadata_bytes=message.metadata_bytes,
            metadata_units=message.metadata_units,
        )
        echo, delta = shard.fingerprints(), shard.missing(message.payload)
        return self._delta_reply(shard_id, src, delta, echo)

    def _on_repair(self, src: int, shard_id: int, message: Message) -> Optional[Message]:
        """Steps 3 and 4 (and a blanket push): absorb; answer an echo."""
        shard = self.store.hosted(shard_id)
        if shard is None:
            return None
        delta, echo = message.payload
        self._account(message)
        # "Did this repair ship content?" is judged on the lattice, not
        # on payload_bytes: over TCP a bottom delta still measures a
        # couple of encoded bytes, and counting it as a repair would
        # make the sim/tcp repair comparison diverge.
        if not delta.is_bottom:
            self._count["repairs"].inc()
        absorbed = shard.absorb(delta, src, drain=False)
        self.store.trace(
            REPAIR_ABSORB,
            shard=shard_id,
            peer=src,
            payload_bytes=message.payload_bytes,
            metadata_bytes=message.metadata_bytes,
            payload_units=message.payload_units,
            extra={"absorbed": not absorbed.is_bottom, "echo": echo is not None},
        )
        if not absorbed.is_bottom:
            self.note_delta_activity(shard_id, src)
        if echo is None:
            return None
        back = shard.missing(echo)
        if back.is_bottom:
            return None
        return self._delta_reply(shard_id, src, back, None)

    def _delta_reply(self, shard_id: int, dst: int, delta: Lattice, echo) -> Message:
        message = _repair_message(delta, echo)
        if message.payload_bytes:
            self.note_delta_activity(shard_id, dst)
        return message

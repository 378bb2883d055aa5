"""The smart client: ring-aware routing, quorum knobs, read repair.

A :class:`KVClient` holds a copy of the consistent-hash ring (placement
is a pure function of the cluster's shape parameters, so the client
computes owners locally — requests never bounce through a proxy tier)
and one persistent connection per replica, speaking the data verbs of
:mod:`repro.serve.frames`.

**Write path** (``w``): the typed operation is applied at exactly *one*
owner — the coordinator — because CRDT ops are not idempotent (applying
``cnt.inc`` at two replicas counts twice).  The coordinator returns the
keyspace *delta* the op produced; for ``w > 1`` the client REPAIRs that
encoded delta to further owners until ``w`` replicas hold it — the join
is idempotent where the op is not, which is the whole reason the delta
travels instead of the op.  Fewer than ``w`` reachable owners raises
:class:`~repro.kv.cluster.Unavailable`; the coordinator's copy is not
rolled back (CRDT writes cannot be unapplied — the guarantee is "at
least the coordinator", never "exactly the quorum or nothing").

**Read path** (``r``): the client collects ``r`` owner replies and
returns the *join*, so any reply that saw a write makes the result see
it — with ``r + w > replication`` every read overlaps some write-quorum
member and reads become monotone across the session.  With ``r = 1``
the read is exactly one replica's local state and the staleness
contract of :meth:`repro.kv.cluster.KVCluster.value` applies verbatim.
Divergent replies (a replier strictly below the join) optionally
trigger **read repair**: the join is pushed back to the stale repliers,
so popular keys heal ahead of anti-entropy.

The client also keeps a per-key **session cache** of everything it has
observed; a read that fails to dominate the cache is a *stale session
read* (the client knew more than the replica it asked).  The quorum
experiment uses this counter to put a number on the ``r = 1`` vs
``r = quorum`` contract.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.codec import decode, encode
from repro.kv.driver import Unavailable
from repro.kv.ring import HashRing
from repro.kv.types import spec_for
from repro.lattice.base import Lattice
from repro.lattice.map_lattice import MapLattice
from repro.serve import frames
from repro.serve.cluster import ControlClient


def join_replies(replies: Sequence[Optional[Lattice]]) -> Optional[Lattice]:
    """The join of ``r`` read replies (``None`` replies = unwritten).

    This *is* the quorum read: the result dominates every reply, so one
    up-to-date replica in the read set is enough for the client to see
    a write.  ``None`` when every replier had nothing.
    """
    joined: Optional[Lattice] = None
    for reply in replies:
        if reply is None:
            continue
        joined = reply if joined is None else joined.join(reply)
    return joined


def stale_repliers(
    replies: Sequence[Tuple[int, Optional[Lattice]]],
    joined: Optional[Lattice],
) -> List[int]:
    """Repliers strictly below the join — the read-repair targets."""
    if joined is None:
        return []
    return [
        replica
        for replica, reply in replies
        if reply is None or not joined.leq(reply)
    ]


class KVClient:
    """A get/put/remove front end over a serving cluster.

    Args:
        addresses: replica → ``(host, port)`` of the client plane (take
            :meth:`~repro.serve.cluster.ProcessCluster.client_addresses`).
        replicas: Full ring membership; defaults to the address map's
            keys (pass explicitly when some members are currently down
            — placement must not change just because a replica died).
        shards / replication: The cluster's shape parameters; must
            match the replicas' own, or routing disagrees.
        r / w: Read and write quorum sizes (1 ≤ r, w ≤ replication).
        read_repair: Push the join back to divergent repliers.
        route: ``"primary"`` reads start at the coordinator (replies
            rarely diverge — the coordinator saw every coordinated
            write); ``"random"`` spreads reads over all owners, which
            is what makes ``r = 1`` staleness *observable*.
        seed: RNG seed for ``route="random"`` (determinism).
    """

    def __init__(
        self,
        addresses: Dict[int, Tuple[str, int]],
        *,
        replicas: Optional[Sequence[int]] = None,
        shards: int = 32,
        replication: int = 3,
        r: int = 1,
        w: int = 1,
        read_repair: bool = True,
        route: str = "primary",
        seed: int = 0,
    ) -> None:
        members = sorted(addresses) if replicas is None else sorted(replicas)
        self.ring = HashRing(members, n_shards=shards, replication=replication)
        if not 1 <= r <= replication:
            raise ValueError(f"read quorum r={r} outside 1..{replication}")
        if not 1 <= w <= replication:
            raise ValueError(f"write quorum w={w} outside 1..{replication}")
        if route not in ("primary", "random"):
            raise ValueError(f"unknown read route {route!r} (primary | random)")
        self.r = r
        self.w = w
        self.read_repair = read_repair
        self.route = route
        self._rng = random.Random(seed)
        self._addresses = dict(addresses)
        self._connections: Dict[int, ControlClient] = {}
        #: key → join of every value this client has observed (written
        #: deltas and read replies) — the session-monotonicity baseline.
        self._session: Dict[Hashable, Lattice] = {}
        self.stats: Dict[str, int] = {
            "gets": 0,
            "puts": 0,
            "removes": 0,
            "retries": 0,
            "unavailable": 0,
            "divergent_reads": 0,
            "read_repairs": 0,
            "stale_session_reads": 0,
            "replica_puts": 0,
        }

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    def update_addresses(self, addresses: Dict[int, Tuple[str, int]]) -> None:
        """Adopt a new address map (respawns publish fresh ports)."""
        for replica, address in addresses.items():
            if self._addresses.get(replica) != address:
                stale = self._connections.pop(replica, None)
                if stale is not None:
                    stale.close()
            self._addresses[replica] = address

    def _connection(self, replica: int) -> ControlClient:
        client = self._connections.get(replica)
        if client is None:
            address = self._addresses.get(replica)
            if address is None:
                raise ConnectionError(f"no address for replica {replica}")
            client = ControlClient(address[0], address[1])
            self._connections[replica] = client
        return client

    def _request(self, replica: int, verb: int, **fields: Any):
        try:
            return self._connection(replica).request(verb, **fields)
        except (ConnectionError, OSError):
            # Dead socket: forget it so a respawned replica re-dials.
            stale = self._connections.pop(replica, None)
            if stale is not None:
                stale.close()
            raise

    def close(self) -> None:
        for client in self._connections.values():
            client.close()
        self._connections.clear()

    def __enter__(self) -> "KVClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------

    def put(self, key: Hashable, op: str, *args: Any) -> Lattice:
        """``op(*args)`` on ``key`` at a write quorum; returns the delta."""
        self.stats["puts"] += 1
        return self._write(key, frames.PUT, op, args)

    def remove(self, key: Hashable) -> Lattice:
        """Observed-remove ``key`` at a write quorum; returns the delta."""
        self.stats["removes"] += 1
        return self._write(key, frames.REMOVE, None, ())

    def _write(
        self, key: Hashable, verb: int, op: Optional[str], args: Tuple
    ) -> Lattice:
        owners = self.ring.owners(key)
        delta: Optional[Lattice] = None
        coordinator: Optional[int] = None
        for owner in owners:
            try:
                if verb == frames.PUT:
                    response = self._request(
                        owner, frames.PUT, key=key, op=op, args=args
                    )
                else:
                    response = self._request(owner, frames.REMOVE, key=key)
            except (ConnectionError, OSError):
                self.stats["retries"] += 1
                continue
            delta = decode(response.blob) if response.blob else MapLattice()
            coordinator = owner
            break
        if delta is None or coordinator is None:
            self.stats["unavailable"] += 1
            raise Unavailable(
                f"no reachable owner of key {key!r} (owners: {list(owners)})"
            )
        acked = 1
        if self.w > 1 and isinstance(delta, MapLattice) and not delta.is_bottom:
            blob = encode(delta)
            for owner in owners:
                if acked >= self.w:
                    break
                if owner == coordinator:
                    continue
                try:
                    self._request(owner, frames.REPAIR, blob=blob)
                except (ConnectionError, OSError):
                    self.stats["retries"] += 1
                    continue
                acked += 1
                self.stats["replica_puts"] += 1
            if acked < self.w:
                self.stats["unavailable"] += 1
                raise Unavailable(
                    f"write quorum w={self.w} not met for key {key!r}: "
                    f"{acked} owners hold the delta (owners: {list(owners)})"
                )
        if isinstance(delta, MapLattice):
            written = delta.entries.get(key)
            if written is not None:
                self._observe(key, written)
        return delta

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------

    def get(self, key: Hashable) -> Any:
        """The typed value of ``key`` from the join of ``r`` replies."""
        joined = self.get_lattice(key)
        spec = spec_for(key)
        return spec.read(joined if joined is not None else spec.bottom())

    def get_lattice(self, key: Hashable) -> Optional[Lattice]:
        """The raw joined lattice of a quorum read (``None`` = unwritten)."""
        self.stats["gets"] += 1
        owners = self._read_order(key)
        replies: List[Tuple[int, Optional[Lattice]]] = []
        for owner in owners:
            if len(replies) >= self.r:
                break
            try:
                response = self._request(owner, frames.GET, key=key)
            except (ConnectionError, OSError):
                self.stats["retries"] += 1
                continue
            replies.append(
                (owner, decode(response.blob) if response.blob else None)
            )
        if len(replies) < self.r:
            self.stats["unavailable"] += 1
            raise Unavailable(
                f"read quorum r={self.r} not met for key {key!r}: "
                f"{len(replies)} of {len(owners)} owners answered"
            )
        joined = join_replies([reply for _, reply in replies])
        stale = stale_repliers(replies, joined)
        if stale:
            self.stats["divergent_reads"] += 1
            if self.read_repair and joined is not None:
                blob = encode(MapLattice({key: joined}))
                for replica in stale:
                    try:
                        self._request(replica, frames.REPAIR, blob=blob)
                        self.stats["read_repairs"] += 1
                    except (ConnectionError, OSError):
                        self.stats["retries"] += 1
        self._note_session_read(key, joined)
        return joined

    def _read_order(self, key: Hashable) -> List[int]:
        owners = list(self.ring.owners(key))
        if self.route == "random":
            self._rng.shuffle(owners)
        return owners

    # ------------------------------------------------------------------
    # Session-staleness tracking.
    # ------------------------------------------------------------------

    def _observe(self, key: Hashable, value: Lattice) -> None:
        known = self._session.get(key)
        self._session[key] = value if known is None else known.join(value)

    def _note_session_read(
        self, key: Hashable, joined: Optional[Lattice]
    ) -> None:
        known = self._session.get(key)
        if known is not None and not known.is_bottom:
            if joined is None or not known.leq(joined):
                # The replica set answered with less than this client
                # has already seen — a session-monotonicity violation.
                self.stats["stale_session_reads"] += 1
        if joined is not None:
            self._observe(key, joined)

    def __repr__(self) -> str:
        return (
            f"KVClient(replicas={len(self._addresses)}, r={self.r}, "
            f"w={self.w}, route={self.route!r})"
        )

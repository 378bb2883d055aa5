"""Pairwise state-driven and digest-driven synchronization.

Section VI of the paper situates its contribution next to two pairwise
protocols the same authors proposed for synchronizing replicas after a
network partition (Enes et al., PMLDC@ECOOP 2016), both of which also
exploit join decompositions:

* **state-driven**: A sends its full state to B; B joins it, computes
  the optimal delta ``∆(x_B, x_A)`` covering what A missed, and sends it
  back.  Convergence in 2 messages, but the first one is a full state.

* **digest-driven**: A sends only a *digest* of its state — enough for
  B to decide which of its own irreducibles A is missing; B replies
  with that delta plus a digest of its own state, and A answers with
  the delta B misses.  Convergence in 3 messages, none of which carries
  a full state.

The digest implemented here is the set of collision-resistant 8-byte
fingerprints of the state's join decomposition: ``{h(r) | r ∈ ⇓x}``.
A peer computes the exact delta by keeping the irreducibles whose
fingerprint the digest lacks.  Digests are therefore proportional to
the *number* of irreducibles, not their size — a large win when
elements are big (tweets) and states mostly overlap.

These functions operate directly on two replicas' states and report
the bytes each strategy moved, which the partition-recovery example and
the ablation benchmarks use.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import compress
from typing import Dict, FrozenSet, Hashable, Optional, Tuple

from repro.lattice.base import Lattice, join_all
from repro.lattice.map_lattice import MapLattice

#: Bytes per digest fingerprint.
FINGERPRINT_BYTES = 8
#: Bytes per digest *root* — the probe-sized summary of a whole digest.
ROOT_BYTES = 16


def fingerprint(irreducible: Lattice) -> bytes:
    """A stable 8-byte fingerprint of a join-irreducible state.

    Uses BLAKE2b over the canonical ``repr`` (reprs in this library sort
    their contents, so equal values always print identically), which is
    deterministic across processes — unlike built-in ``hash`` under
    string-hash randomization.
    """
    return hashlib.blake2b(repr(irreducible).encode("utf-8"), digest_size=FINGERPRINT_BYTES).digest()


def key_fingerprints(key: Hashable, value: Lattice) -> Tuple[bytes, ...]:
    """``fingerprint(MapLattice({key: r}))`` for each ``r`` of ``value.decompose()``.

    In that order, and without the singleton maps: a one-binding map
    prints as ``MapLattice({<key>: <r>})``, so the key's part of the
    string is built once and each irreducible adds only its own ``repr``.
    """
    prefix = f"MapLattice({{{key!r}: "
    blake2b = hashlib.blake2b
    return tuple(
        blake2b(f"{prefix}{irreducible!r}}})".encode("utf-8"), digest_size=FINGERPRINT_BYTES).digest()
        for irreducible in value.decompose()
    )


def digest_of(state: Lattice) -> FrozenSet[bytes]:
    """The digest of a state: fingerprints of its decomposition."""
    return frozenset(fingerprint(r) for r in state.decompose())


def delta_against_digest(state: Lattice, remote_digest: FrozenSet[bytes]) -> Lattice:
    """Join of the irreducibles of ``state`` the digest does not cover."""
    acc = state.bottom_like()
    for irreducible in state.decompose():
        if fingerprint(irreducible) not in remote_digest:
            acc = acc.join(irreducible)
    return acc


def root_of(digest: FrozenSet[bytes]) -> bytes:
    """One hash summarizing a whole digest — the O(1)-to-compare probe.

    Equal states decompose to equal digests and therefore equal roots,
    so two replicas can rule out divergence by exchanging ``ROOT_BYTES``
    instead of the full fingerprint set; a mismatch escalates to the
    digest itself.
    """
    hasher = hashlib.blake2b(digest_size=ROOT_BYTES)
    for entry in sorted(digest):
        hasher.update(entry)
    return hasher.digest()


def digest_and_missing(
    state: Lattice, remote_digest: FrozenSet[bytes]
) -> Tuple[FrozenSet[bytes], Lattice]:
    """Both sides of a diff reply, in one decomposition pass.

    Returns ``(digest_of(state), delta_against_digest(state,
    remote_digest))`` while fingerprinting every irreducible exactly
    once — what a responder announces about itself and what it ships
    because the remote digest lacks it.
    """
    fingerprints = []
    acc = state.bottom_like()
    for irreducible in state.decompose():
        entry = fingerprint(irreducible)
        fingerprints.append(entry)
        if entry not in remote_digest:
            acc = acc.join(irreducible)
    return frozenset(fingerprints), acc


class IncrementalDigest:
    """The fingerprint index of one evolving state, with three reads.

    The sharded store needs ``root_of(digest_of(state))`` on every
    digest probe, handoff round-trip, and convergence-lag sample, and
    ``digest_of`` / ``delta_against_digest`` on every escalated repair —
    a full decomposition plus one BLAKE2b per irreducible each time,
    even when nothing changed since the last ask.  This index keeps a
    ``key → (value, fingerprints)`` table instead and answers all three
    from it: :meth:`root` (the probe), :meth:`digest` (the ``kv-diff``
    and the echo) and :meth:`missing` (both repair deltas).  It
    exploits two library-wide invariants:

    * lattice values are immutable to everyone but the one replica that
      built them, and every state the index sees was handed out (read
      through ``Synchronizer.state``, which ends the replica's in-place
      joins), so an object-identity check is a sound staleness signal,
      and
    * :meth:`MapLattice.join` reuses the value objects of untouched
      keys, so after an inflation only the touched keys'
      bindings are new objects (the same reuse
      ``repro.kv.shard._keyspace_novelty`` builds on).

    ``refresh`` walks the map's bindings once, comparing identity
    against the last-seen value per key, and re-fingerprints only the
    keys that changed.  Fingerprints are kept as a multiset (the same
    fingerprint may in principle repeat across keys), so removing a
    key's old contribution cannot drop another key's identical entry.
    The digest and its root are rebuilt lazily and only when a refresh
    actually changed something; asking again for an unchanged state is
    one identity check.

    For non-map states there is no per-key reuse to exploit, so the
    cache degrades to a full recompute memoized on the state object.

    The cached values are definitionally equal to ``digest_of(state)``
    and ``root_of(digest_of(state))``: the per-key fingerprints hash
    exactly the ``MapLattice({key: irreducible})`` singletons that
    :meth:`MapLattice.decompose` yields, in the order the value's own
    ``decompose()`` yields them — an order :meth:`Lattice.decompose`
    promises is the same every time one value object is asked, which
    is what lets :meth:`missing` pair a value's irreducibles with its
    cached fingerprints instead of hashing them again.

    They are hashed by :func:`key_fingerprints`, which never builds
    those singletons: it prints the key's share of the string,
    ``MapLattice({<key!r>: ``, once per changed key and appends each
    irreducible's own ``repr``.  The bytes hashed are the same, so no
    fingerprint, root or message moves.  :func:`fingerprint`,
    :func:`digest_of` and :func:`delta_against_digest` keep building
    the singletons: they are the definition the index is tested
    against, and the property suite asserts all three equalities
    after arbitrary mutation sequences across every lattice family.
    """

    __slots__ = ("_state", "_values", "_counts", "_digest", "_root")

    def __init__(self) -> None:
        #: The state object the cached fingerprints reflect.
        self._state: Optional[Lattice] = None
        #: key → (last-seen value object, its fingerprint tuple).
        self._values: Dict = {}
        #: fingerprint → multiplicity across keys (multiset semantics).
        self._counts: Dict[bytes, int] = {}
        self._digest: Optional[FrozenSet[bytes]] = None
        self._root: Optional[bytes] = None

    def digest(self, state: Lattice) -> FrozenSet[bytes]:
        """``digest_of(state)``, reusing unchanged keys' fingerprints."""
        self._refresh(state)
        if self._digest is None:
            self._digest = frozenset(self._counts)
        return self._digest

    def root(self, state: Lattice) -> bytes:
        """``root_of(digest_of(state))``, O(1) when nothing changed."""
        self._refresh(state)
        if self._root is None:
            self._root = root_of(self.digest(state))
        return self._root

    def missing(self, state: Lattice, remote_digest: FrozenSet[bytes]) -> Lattice:
        """``delta_against_digest(state, remote_digest)``, nothing re-hashed.

        Per key: fingerprints the remote all holds cost one set look-up
        each; a value the remote wholly lacks is shipped as the object
        it is (the join of ``⇓v`` is ``v``); only a *partly* lacking
        value is decomposed, its irreducibles paired by position with
        the cached fingerprints.  Keys are visited in the state's own
        order, so the delta is laid out as the generic function lays
        it out.
        """
        if not isinstance(state, MapLattice):
            return delta_against_digest(state, remote_digest)
        self._refresh(state)
        values = self._values
        lacking: Dict = {}
        for key in state.entries:
            value, fps = values[key]
            absent = [fp not in remote_digest for fp in fps]
            if True not in absent:
                continue
            if False in absent:
                value = join_all(
                    compress(value.decompose(), absent), value.bottom_like()
                )
            lacking[key] = value
        return MapLattice(lacking)

    def _forget(self, fps: Tuple[bytes, ...]) -> None:
        counts = self._counts
        for fp in fps:
            remaining = counts[fp] - 1
            if remaining:
                counts[fp] = remaining
            else:
                del counts[fp]

    def _refresh(self, state: Lattice) -> None:
        if state is self._state:
            return
        if not isinstance(state, MapLattice):
            self._values = {}
            self._counts = {}
            self._digest = digest_of(state)
            self._root = None
            self._state = state
            return
        entries = state.entries
        values = self._values
        counts = self._counts
        changed = False
        for key, value in entries.items():
            known = values.get(key)
            if known is not None and known[0] is value:
                continue
            if known is not None:
                self._forget(known[1])
            fps = key_fingerprints(key, value)
            values[key] = (value, fps)
            for fp in fps:
                counts[fp] = counts.get(fp, 0) + 1
            changed = True
        if len(values) > len(entries):
            # The table now covers every key of the state, so it is
            # longer only if keys vanished: the tracked state was
            # replaced outright (rebuild, shard swap), not inflated.
            for key in [key for key in values if key not in entries]:
                self._forget(values.pop(key)[1])
            changed = True
        if changed:
            self._digest = None
            self._root = None
        self._state = state


@dataclass(frozen=True)
class DigestExchange:
    """Outcome of a pairwise synchronization: traffic and convergence.

    Attributes:
        strategy: ``"full"``, ``"state-driven"``, or ``"digest-driven"``.
        messages: Number of messages exchanged.
        bytes_sent: Total bytes moved (payload plus digests).
        converged_state: The common state both replicas hold afterwards.
    """

    strategy: str
    messages: int
    bytes_sent: int
    converged_state: Lattice


def full_state_sync(state_a: Lattice, state_b: Lattice) -> DigestExchange:
    """Baseline: bidirectional full-state exchange (2 full states)."""
    joined = state_a.join(state_b)
    traffic = state_a.size_bytes() + state_b.size_bytes()
    return DigestExchange("full", messages=2, bytes_sent=traffic, converged_state=joined)


def state_driven_sync(state_a: Lattice, state_b: Lattice) -> DigestExchange:
    """A ships its state; B replies with the optimal missing delta."""
    # Message 1: A → B, full state.
    first = state_a.size_bytes()
    b_after = state_b.join(state_a)
    # Message 2: B → A, ∆(x_B, x_A) — exactly what A lacks.
    back = state_b.delta(state_a)
    second = back.size_bytes()
    a_after = state_a.join(back)
    assert a_after == b_after, "state-driven sync must converge"
    return DigestExchange(
        "state-driven", messages=2, bytes_sent=first + second, converged_state=a_after
    )


def digest_driven_sync(state_a: Lattice, state_b: Lattice) -> DigestExchange:
    """Three-way sync where no message carries a full state."""
    # Message 1: A → B, digest of A.
    digest_a = digest_of(state_a)
    first = len(digest_a) * FINGERPRINT_BYTES
    # Message 2: B → A, B's digest plus the delta A misses, from one
    # pass over B's decomposition.
    digest_b, delta_for_a = digest_and_missing(state_b, digest_a)
    second = delta_for_a.size_bytes() + len(digest_b) * FINGERPRINT_BYTES
    a_after = state_a.join(delta_for_a)
    # Message 3: A → B, the delta B misses.
    delta_for_b = delta_against_digest(state_a, digest_b)
    third = delta_for_b.size_bytes()
    b_after = state_b.join(delta_for_b)
    assert a_after == b_after, "digest-driven sync must converge"
    return DigestExchange(
        "digest-driven",
        messages=3,
        bytes_sent=first + second + third,
        converged_state=a_after,
    )

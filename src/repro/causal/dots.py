"""Dots and causal contexts — the bookkeeping behind causal CRDTs.

The paper's Appendix B notes that its decomposition results "can be
obtained for almost all state-based CRDTs used in practice".  The most
important practical family beyond the grow-only types are the *causal*
(observed-remove) CRDTs of the delta-CRDT lineage the paper builds on
(Almeida et al., *Delta State Replicated Data Types*, JPDC 2018):
add-wins sets, enable/disable-wins flags, multi-value registers, and
observed-remove maps.  Their states pair a *dot store* with a *causal
context*:

* a **dot** ``(i, n)`` uniquely names the *n*-th update event performed
  by replica ``i``;
* a **causal context** is the set of dots a replica has observed.

Removal works without tombstoning payloads: an element's dots are
dropped from the store while the context keeps remembering them, so a
join can distinguish "you have not seen this add yet" (dot missing from
the context — keep it) from "you deleted it" (dot in the context but
not the store — drop it).

Contexts are stored compactly as a version vector (the per-replica
contiguous prefix ``1..n``) plus a *dot cloud* of out-of-order dots;
the constructor normalizes by absorbing cloud dots contiguous with the
vector, which keeps equality and hashing canonical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, Mapping, NamedTuple, Set

from repro.lattice.base import Frozen

if TYPE_CHECKING:  # pragma: no cover
    from repro.sizes import SizeModel


class Dot(NamedTuple):
    """A globally unique event identifier: replica id and local counter.

    Counters start at 1; replica ``i``'s k-th update carries ``Dot(i, k)``.

    >>> Dot("A", 1) < Dot("A", 2)
    True
    """

    replica: Hashable
    counter: int


class CausalContext(Frozen):
    """An immutable, compactly-represented set of observed dots.

    The context is the pair of a version vector ``compact`` (replica →
    highest ``n`` such that all of ``1..n`` was observed) and a
    ``cloud`` of isolated dots above the vector.  All operations return
    new contexts; normalization keeps the representation canonical so
    value equality is structural equality.

    >>> cc = CausalContext.from_dots([Dot("A", 1), Dot("A", 2), Dot("B", 2)])
    >>> cc.contains(Dot("A", 2)), cc.contains(Dot("B", 1))
    (True, False)
    """

    __slots__ = ("compact", "cloud", "_hash")

    def __init__(
        self,
        compact: Mapping[Hashable, int] | None = None,
        cloud: Iterable[Dot] = (),
    ) -> None:
        vector: Dict[Hashable, int]
        kept: Iterable[Dot]
        if not compact and type(cloud) is tuple and len(cloud) == 1:
            # One dot, the context of every piece of a decomposition:
            # canonical as it stands unless it is its replica's first
            # event (the vector entry 1) or no event at all.
            (dot,) = cloud
            vector = {dot.replica: 1} if dot.counter == 1 else {}
            kept = cloud if dot.counter > 1 else ()
        else:
            vector = {replica: top for replica, top in (compact or {}).items() if top > 0}
            pending: Set[Dot] = set(cloud)
            # Absorb cloud dots contiguous with the vector so the compact
            # part is the maximal contiguous prefix (canonical form).
            changed = True
            while changed and pending:
                changed = False
                for dot in sorted(pending):
                    if dot.counter == vector.get(dot.replica, 0) + 1:
                        vector[dot.replica] = dot.counter
                        pending.discard(dot)
                        changed = True
                    elif dot.counter <= vector.get(dot.replica, 0):
                        pending.discard(dot)
                        changed = True
            kept = pending
        object.__setattr__(self, "compact", vector)
        object.__setattr__(self, "cloud", frozenset(kept))
        object.__setattr__(self, "_hash", None)

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------

    @staticmethod
    def from_dots(dots: Iterable[Dot]) -> "CausalContext":
        """Context containing exactly ``dots``."""
        return CausalContext(cloud=dots)

    def union(self, other: "CausalContext") -> "CausalContext":
        """Set union of the observed dots (the lattice join of contexts)."""
        if other.is_empty:
            return self
        if self.is_empty:
            return other
        merged = dict(self.compact)
        for replica, top in other.compact.items():
            if top > merged.get(replica, 0):
                merged[replica] = top
        return CausalContext(merged, self.cloud | other.cloud)

    def add(self, dot: Dot) -> "CausalContext":
        """Return a context additionally containing ``dot``."""
        if self.contains(dot):
            return self
        return CausalContext(self.compact, self.cloud | {dot})

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def contains(self, dot: Dot) -> bool:
        """True if ``dot`` was observed."""
        return dot.counter <= self.compact.get(dot.replica, 0) or dot in self.cloud

    def max_counter(self, replica: Hashable) -> int:
        """The highest counter observed for ``replica`` (0 if none)."""
        top = self.compact.get(replica, 0)
        for dot in self.cloud:
            if dot.replica == replica and dot.counter > top:
                top = dot.counter
        return top

    def next_dot(self, replica: Hashable) -> Dot:
        """A fresh dot for ``replica``'s next local update event."""
        return Dot(replica, self.max_counter(replica) + 1)

    @property
    def is_empty(self) -> bool:
        return not self.compact and not self.cloud

    def dot_count(self) -> int:
        """The number of observed dots (compact prefix plus cloud)."""
        return sum(self.compact.values()) + len(self.cloud)

    def dots(self) -> Iterator[Dot]:
        """Every observed dot; O(dot_count), meant for small contexts."""
        for replica, top in self.compact.items():
            for counter in range(1, top + 1):
                yield Dot(replica, counter)
        yield from self.cloud

    def subtract(self, other: "CausalContext") -> Iterator[Dot]:
        """Dots in ``self`` but not in ``other``.

        Enumerates only the difference, never the full compact prefix,
        so it stays cheap when two replicas are nearly in sync — the
        common case in the paper's synchronization loops.
        """
        for replica, top in self.compact.items():
            start = other.compact.get(replica, 0) + 1
            for counter in range(start, top + 1):
                dot = Dot(replica, counter)
                if not other.contains(dot):
                    yield dot
        for dot in self.cloud:
            if not other.contains(dot):
                yield dot

    def leq(self, other: "CausalContext") -> bool:
        """Subset test: every dot of ``self`` is in ``other``.

        Because normalization keeps ``compact`` maximal, prefix coverage
        reduces to a per-replica counter comparison.
        """
        for replica, top in self.compact.items():
            if top > other.compact.get(replica, 0):
                return False
        return all(other.contains(dot) for dot in self.cloud)

    # ------------------------------------------------------------------
    # Size accounting (context entries travel with every causal delta).
    # ------------------------------------------------------------------

    def size_units(self) -> int:
        """Entries in the paper's unit metric: vector entries + cloud dots."""
        return len(self.compact) + len(self.cloud)

    def size_bytes(self, model: "SizeModel") -> int:
        """Bytes: each vector entry and cloud dot is an (id, counter) pair."""
        return (len(self.compact) + len(self.cloud)) * model.vector_entry_bytes()

    # ------------------------------------------------------------------
    # Value semantics.
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CausalContext)
            and self.compact == other.compact
            and self.cloud == other.cloud
        )

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((frozenset(self.compact.items()), self.cloud))
            # A memo, not a mutation: the hash is a pure function of the frozen context.
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        # A one-entry vector or a one-dot cloud (every decomposition
        # piece) prints without sorting.
        if not self.cloud and len(self.compact) == 1:
            ((replica, top),) = self.compact.items()
            return f"CausalContext({{{replica!r}:{top}}})"
        if not self.compact and len(self.cloud) == 1:
            ((replica, counter),) = self.cloud
            return f"CausalContext(+{{{replica!r}.{counter}}})"
        vector = ", ".join(
            f"{replica!r}:{top}" for replica, top in sorted(self.compact.items(), key=lambda kv: repr(kv[0]))
        )
        extras = ", ".join(f"{d.replica!r}.{d.counter}" for d in sorted(self.cloud, key=lambda d: (repr(d.replica), d.counter)))
        parts = [p for p in (f"{{{vector}}}" if vector else "", f"+{{{extras}}}" if extras else "") if p]
        return f"CausalContext({' '.join(parts) or '∅'})"


#: The empty context shared by every bottom causal state.
EMPTY_CONTEXT = CausalContext()

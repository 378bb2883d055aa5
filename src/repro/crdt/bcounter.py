"""Bounded counter — a PNCounter that can never go negative.

``BCounter`` (after Balegas et al., *Extending Eventually Consistent
Cloud Databases for Enforcing Numeric Invariants*, SRDS 2015) enforces
the global invariant ``value ≥ 0`` without coordination: each replica
may only decrement against *rights* it locally owns, and rights can be
transferred between replicas ahead of demand.  Increments mint rights
for the incrementing replica.

The state composes the library's lattice constructs —

    BCounter = (I ↪→ (ℕ × ℕ))  ×  ((I × I) ↪→ ℕ)

a PNCounter body plus a grow-only transfer matrix ``T`` where
``T(i, j)`` accumulates the rights ``i`` has ceded to ``j``.  The local
rights of replica ``i`` are::

    rights(i) = inc(i) − dec(i) + Σⱼ T(j, i) − Σⱼ T(i, j)

Every mutator checks the rights invariant before producing a delta, and
every delta is optimal (one map entry), so the type drops into any of
the library's synchronizers.  The single-writer discipline per map
entry is the same one Appendix B of the paper invokes for lexicographic
counters.
"""

from __future__ import annotations

from typing import Hashable

from repro.crdt.base import Crdt, delta_mutator, query
from repro.crdt.gcounter import positive
from repro.crdt.pncounter import net_total, pn_entry, tallies
from repro.lattice.map_lattice import MapLattice
from repro.lattice.primitives import MaxInt
from repro.lattice.product import PairLattice


class InsufficientRights(ValueError):
    """Raised when a decrement or transfer exceeds the local rights."""


def _rights(state: PairLattice, replica: Hashable) -> int:
    """Rights owned by ``replica`` under the view ``state``."""
    inc, dec = tallies(state.first, replica)
    inbound = outbound = 0
    for (src, dst), ceded in state.second.items():
        assert isinstance(ceded, MaxInt)
        if dst == replica:
            inbound += ceded.value
        if src == replica:
            outbound += ceded.value
    return inc - dec + inbound - outbound


def _spend(state: PairLattice, replica: Hashable, amount: int, what: str) -> int:
    """``amount``, checked positive and covered by ``replica``'s rights."""
    available = _rights(state, replica)
    if positive(amount, what) > available:
        raise InsufficientRights(
            f"replica {replica!r} holds {available} rights, needs {amount}"
        )
    return amount


class BCounter(Crdt):
    """A non-negative counter with locally-checked decrement rights.

    >>> a, b = BCounter("A"), BCounter("B")
    >>> _ = a.increment(10)
    >>> _ = a.transfer(4, to="B")
    >>> b.merge(a)
    >>> _ = b.decrement(3)
    >>> b.merge(a); a.merge(b)
    >>> a.value
    7
    >>> a.rights, b.rights
    (6, 1)
    """

    __slots__ = ()

    bottom = staticmethod(lambda: PairLattice(MapLattice(), MapLattice()))

    # ------------------------------------------------------------------
    # δ-mutators (all return optimal deltas: one map entry).
    # ------------------------------------------------------------------

    @delta_mutator
    def increment(replica: Hashable, state: PairLattice, by: int = 1) -> PairLattice:
        """Add ``by`` to the counter, minting ``by`` local rights."""
        inc, _ = tallies(state.first, replica)
        return PairLattice(
            MapLattice({replica: pn_entry(inc + positive(by, "increment"), 0)}),
            state.second.bottom_like(),
        )

    @delta_mutator
    def decrement(replica: Hashable, state: PairLattice, by: int = 1) -> PairLattice:
        """Subtract ``by``, if this replica owns enough rights.

        Raises :class:`InsufficientRights` otherwise — the caller must
        either :meth:`transfer` rights in from elsewhere or give up;
        that local refusal is exactly what keeps the global value
        non-negative with no coordination.
        """
        _, dec = tallies(state.first, replica)
        spent = _spend(state, replica, by, "decrement")
        return PairLattice(
            MapLattice({replica: pn_entry(0, dec + spent)}), state.second.bottom_like()
        )

    @delta_mutator
    def transfer(
        replica: Hashable, state: PairLattice, amount: int, to: Hashable
    ) -> PairLattice:
        """Cede ``amount`` local rights to replica ``to``.

        The transfer is an entry in the grow-only matrix, so it commutes
        with every other operation; the recipient can spend the rights
        as soon as the delta reaches it.
        """
        if to == replica:
            raise ValueError("cannot transfer rights to oneself")
        ceded = state.second.get((replica, to))
        base = ceded.value if isinstance(ceded, MaxInt) else 0
        spent = _spend(state, replica, amount, "transfer")
        return PairLattice(
            state.first.bottom_like(), MapLattice({(replica, to): MaxInt(base + spent)})
        )

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    value = query(lambda state: net_total(state.first))

    @property
    def rights(self) -> int:
        """Decrement rights currently owned by the local replica."""
        return _rights(self.state, self.replica)

    def rights_of(self, replica: Hashable) -> int:
        """Rights owned by ``replica`` under the local view of the state.

        Monotone reasoning makes the local check safe: increments and
        inbound transfers only ever raise another replica's true rights
        above our view, while the components that lower them (its own
        decrements and outbound transfers) are written only by that
        replica itself.
        """
        return _rights(self.state, replica)

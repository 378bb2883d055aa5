"""Common machinery for state-based CRDT objects.

A :class:`Crdt` owns an immutable lattice value (its *state*) plus the
replica identifier used by identity-keyed types (counters).  Mutators
update the state in place (replacing the immutable value) and return the
**delta** they produced, so callers can hand it to a delta-based
synchronizer; standard state-based usage simply ignores the return
value.

The module also exposes :func:`optimal_delta_mutator`, the paper's
recipe (Section III-B) for deriving a minimal δ-mutator from any
mutator::

    mδ(x) = ∆(m(x), x)
"""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

from repro.lattice.base import Lattice

L = TypeVar("L", bound=Lattice)


def optimal_delta_mutator(mutator: Callable[[L], L]) -> Callable[[L], L]:
    """Derive the minimal δ-mutator from a full-state mutator.

    Given an inflationary mutator ``m`` (``x ⊑ m(x)``), returns ``mδ``
    such that ``m(x) = x ⊔ mδ(x)`` and ``mδ(x)`` is the least state with
    that property.  This is how the paper repairs non-optimal δ-mutators
    such as the original GSet ``addδ`` that returned ``{e}`` even when
    ``e`` was already present.

    >>> from repro.lattice import SetLattice
    >>> add_a = lambda s: s.add("a")
    >>> add_a_delta = optimal_delta_mutator(add_a)
    >>> add_a_delta(SetLattice({"a"})).is_bottom   # already present
    True
    """

    def delta_mutator(state: L) -> L:
        mutated = mutator(state)
        return mutated.delta(state)

    return delta_mutator


class Crdt:
    """Base class: a replica-local CRDT object over a lattice state.

    Attributes:
        replica: Identifier of the local replica; used by types whose
            state is keyed by replica identity.
        state: The current lattice value.  Always replaced, never
            mutated, so snapshots taken by synchronizers stay valid.
    """

    __slots__ = ("replica", "state")

    def __init__(self, replica: Hashable, state: Lattice) -> None:
        self.replica = replica
        self.state = state

    # ------------------------------------------------------------------
    # Synchronization-facing operations.
    # ------------------------------------------------------------------

    def apply_delta(self, delta: Lattice) -> Lattice:
        """Join ``delta`` into the local state and return it unchanged.

        The single funnel through which every mutator updates the state;
        keeping one code path makes the inflation invariant easy to
        audit.
        """
        self.state = self.state.join(delta)
        return delta

    def merge(self, other: "Crdt | Lattice") -> None:
        """Join a remote replica's state (or a raw lattice value)."""
        remote = other.state if isinstance(other, Crdt) else other
        self.state = self.state.join(remote)

    def diff(self, remote_state: Lattice) -> Lattice:
        """Optimal delta bringing ``remote_state`` up to date with us.

        ``self.diff(r) ⊔ r = self.state ⊔ r`` with the smallest possible
        left-hand side — the ``∆`` function of Section III-B.
        """
        return self.state.delta(remote_state)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(replica={self.replica!r}, state={self.state!r})"

"""Common machinery for state-based CRDT objects.

A data type is a *declaration* over an immutable lattice state, written
once, in three parts:

* ``bottom`` — a zero-argument callable returning the value every
  replica starts from;
* its **δ-mutators** — plain functions ``fn(replica, state, *args) → δ``
  decorated with :class:`delta_mutator`, each returning the optimal
  delta ``mδ(x)`` of Section III-B (``m(x) = x ⊔ mδ(x)``);
* its **queries** — plain functions ``fn(state) → value`` decorated
  with :class:`query` (queries that take arguments stay methods).

Read off the class, a declared member *is* the plain function:
``AWSet.add(replica, state, "x")`` computes a δ and touches nothing,
which is how the key-value store and the workloads drive a type.  Read
off a :class:`Crdt` instance it is the in-place form: ``obj.add("x")``
joins the δ into ``obj.state`` and returns it, and ``obj.value`` is the
query's answer on the current state.  That one funnel is the only place
a mutator joins.

The module also exposes :func:`optimal_delta_mutator`, the paper's
recipe (Section III-B) for deriving a minimal δ-mutator from any
mutator::

    mδ(x) = ∆(m(x), x)
"""

from __future__ import annotations

from functools import wraps
from types import MethodType
from typing import Any, Callable, ClassVar, Dict, Hashable, TypeVar

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


class delta_mutator:
    """Declare ``fn(replica, state, *args) → δ`` as a type's δ-mutator.

    On the class the attribute is ``fn`` itself; on an instance it is
    the bound in-place mutator that joins ``fn``'s δ into the
    instance's state and returns the δ.  The declaring class records
    ``fn`` in its :attr:`Crdt.mutators` under the attribute's name.
    """

    __slots__ = ("fn", "in_place")

    def __init__(self, fn: Callable[..., Lattice]) -> None:
        self.fn = fn

        @wraps(fn)
        def in_place(crdt: "Crdt", *args: Any, **kwargs: Any) -> Lattice:
            delta = fn(crdt.replica, crdt.state, *args, **kwargs)
            crdt.state = crdt.state.join(delta)
            return delta

        self.in_place = in_place

    def __set_name__(self, owner: type, name: str) -> None:
        owner.mutators = {**owner.mutators, name: self.fn}

    def __get__(self, crdt: "Crdt | None", owner: type | None = None) -> Callable:
        return self.fn if crdt is None else MethodType(self.in_place, crdt)


class query:
    """Declare ``fn(state) → value`` as a query of a type.

    On the class the attribute is ``fn`` itself; on an instance it reads
    like a property: ``fn`` applied to the instance's state.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __get__(self, crdt: "Crdt | None", owner: type | None = None) -> Any:
        return self.fn if crdt is None else self.fn(crdt.state)


class Crdt:
    """Base class: a replica-local CRDT object over a lattice state.

    Attributes:
        replica: Identifier of the local replica; used by types whose
            state is keyed by replica identity.
        state: The current lattice value.  Always replaced, never
            mutated, so snapshots taken by synchronizers stay valid.
            Defaults to the type's ``bottom()``.
        mutators: The type's declared δ-mutators by name (class-level).
    """

    __slots__ = ("replica", "state")

    bottom: ClassVar[Callable[[], Lattice]]
    mutators: ClassVar[Dict[str, Callable[..., Lattice]]] = {}

    def __init__(self, replica: Hashable, state: Lattice | None = None) -> None:
        self.replica = replica
        self.state = self.bottom() if state is None else state

    # ------------------------------------------------------------------
    # Synchronization-facing operations.
    # ------------------------------------------------------------------

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

"""State-based CRDTs built from the lattice substrate.

Each data type is declared once, as three things (:mod:`repro.crdt.base`):
its ``bottom``; its optimal δ-mutators (Section III-B of the paper),
plain functions ``(replica, state, *args) → δ`` marked
``@delta_mutator``, where for every mutator ``m`` the δ-mutator returns
``mδ(x) = ∆(m(x), x)``, the least state that joined with ``x``
produces ``m(x)``; and its queries, plain functions ``state → value``
marked ``@query``.  ``GCounter.increment(replica, state)`` is the
δ-function itself; ``GCounter("A").increment()`` joins its δ in place.
The key-value store serves a declared type through a
:class:`repro.kv.TypeSpec` in its key-typing table,
:data:`repro.kv.PREFIXES`.

The types mirror the paper's catalogue:

* :class:`~repro.crdt.gcounter.GCounter` and
  :class:`~repro.crdt.gset.GSet` — the running examples of Figure 2;
* :class:`~repro.crdt.gmap.GMap` — the grow-only map of Table I;
* :class:`~repro.crdt.pncounter.PNCounter` — the Appendix C example;
* :class:`~repro.crdt.lwwregister.LWWRegister`,
  :class:`~repro.crdt.twopset.TwoPSet` — composition-construct
  show-cases (lexicographic product, cartesian product);
* :class:`~repro.crdt.bcounter.BCounter` — a non-negative counter with
  locally-checked decrement rights (numeric-invariant extension).
"""

from repro.crdt.base import Crdt, delta_mutator, optimal_delta_mutator, query
from repro.crdt.bcounter import BCounter, InsufficientRights
from repro.crdt.gcounter import GCounter
from repro.crdt.gset import GSet
from repro.crdt.gmap import GMap
from repro.crdt.pncounter import PNCounter
from repro.crdt.lwwregister import LWWRegister
from repro.crdt.twopset import TwoPSet

__all__ = [
    "BCounter",
    "Crdt",
    "InsufficientRights",
    "delta_mutator",
    "optimal_delta_mutator",
    "query",
    "GCounter",
    "GSet",
    "GMap",
    "PNCounter",
    "LWWRegister",
    "TwoPSet",
]

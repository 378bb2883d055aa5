"""Causal (observed-remove) delta-CRDTs over dot stores.

This package extends the paper's join-decomposition machinery to the
causal CRDT family of the delta-CRDT lineage (Almeida et al., JPDC
2018) — the "more complex" data types the paper's Appendix B argues its
results cover.  States pair a dot store with a causal context
(:class:`Causal`), which implements the full lattice protocol: joins,
the partial order, unique irredundant join decompositions, and optimal
deltas — so removals, flags, and registers synchronize through every
protocol in :mod:`repro.sync` with no special-casing.

Each type is a declaration in the style of :mod:`repro.crdt`: a
``bottom``, ``@delta_mutator`` functions ``(replica, state, *args) → δ``
and ``@query`` functions ``state → value``.  The δs several types share
are written once in :mod:`repro.causal.causal`: ``cover_observed``
(clearing a set or map, resetting a counter, lowering a flag) and
``cover_key`` (removing one set element or map key).  The key-value
store serves a declared type through a :class:`repro.kv.TypeSpec` in
its key-typing table, :data:`repro.kv.PREFIXES`.

Data types:

=====================  ==========================  =======================
Type                   Store                       Conflict policy
=====================  ==========================  =======================
:class:`EWFlag`        ``DotSet``                  enable wins
:class:`DWFlag`        ``DotSet``                  disable wins
:class:`AWSet`         ``DotMap⟨E, DotSet⟩``       add wins
:class:`RWSet`         ``DotMap⟨E×2, DotSet⟩``     remove wins
:class:`CausalMVRegister`  ``DotFun⟨Atom⟩``        all concurrent writes
:class:`CCounter`      ``DotFun⟨MaxInt⟩``          reset zeroes observed
:class:`ORMap`         ``DotMap⟨K, store⟩``        update wins vs remove
=====================  ==========================  =======================
"""

from repro.causal.atom import Atom
from repro.causal.awset import AWSet
from repro.causal.causal import Causal
from repro.causal.ccounter import CCounter
from repro.causal.dots import CausalContext, Dot, EMPTY_CONTEXT
from repro.causal.flags import DWFlag, EWFlag
from repro.causal.mvregister import CausalMVRegister
from repro.causal.ormap import ORMap
from repro.causal.rwset import RWSet
from repro.causal.stores import DotFun, DotMap, DotSet, DotStore

__all__ = [
    "Atom",
    "AWSet",
    "Causal",
    "CausalContext",
    "CausalMVRegister",
    "CCounter",
    "Dot",
    "DotFun",
    "DotMap",
    "DotSet",
    "DotStore",
    "DWFlag",
    "EMPTY_CONTEXT",
    "EWFlag",
    "ORMap",
    "RWSet",
]

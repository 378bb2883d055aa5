"""Synchronization protocols for state-based CRDTs.

Implements every synchronization mechanism evaluated in the paper
(Section V), behind one :class:`~repro.sync.protocol.Synchronizer`
interface so the simulator and benchmark harness can swap them freely:

* ``state-based`` — periodic full-state push (Section II);
* ``delta-based`` — Algorithm 1: the classic algorithm plus the BP
  (avoid back-propagation) and RR (remove redundant state) optimizations
  in any combination (Section IV), plus its per-object instantiation
  (Section V-C) — both in :mod:`repro.sync.deltabased`.  Like the
  paper's Algorithm 1 it assumes reliable channels; on the kv path the
  store's digest repair (:mod:`repro.kv.repair`) covers loss;
* ``scuttlebutt`` / ``scuttlebutt-gc`` — anti-entropy reconciliation
  over a versioned delta store, with and without the safe-delete
  knowledge matrix (Section V-B);
* ``op-based`` — causal-broadcast middleware with store-and-forward
  and duplicate suppression (Section V-B);
* ``digest-driven`` / ``state-driven`` — the pairwise partition-recovery
  protocols the paper builds on (Section VI; Enes et al., PMLDC 2016);
* ``merkle`` — hash-prefix-trie anti-entropy, the related-work baseline
  of Section VI (Demers et al. / Byers et al.), for measuring the
  round-trip and hashing overhead the paper attributes to it.
"""

from repro.sync.protocol import Message, Send, Synchronizer, SynchronizerFactory
from repro.sync.statebased import StateBased
from repro.sync.deltabased import (
    DeltaBased,
    KeyedDeltaBased,
    classic,
    delta_bp,
    delta_bp_rr,
    delta_rr,
    keyed_bp,
    keyed_bp_rr,
    keyed_classic,
    keyed_rr,
)
from repro.sync.scuttlebutt import Scuttlebutt, ScuttlebuttGC
from repro.sync.opbased import OpBased
from repro.sync.merkle import MerkleSync
from repro.sync.digest import (
    DigestExchange,
    digest_driven_sync,
    state_driven_sync,
    full_state_sync,
)

ALGORITHMS = {
    "state-based": StateBased,
    "delta-based": classic,
    "delta-based-bp": delta_bp,
    "delta-based-rr": delta_rr,
    "delta-based-bp-rr": delta_bp_rr,
    "scuttlebutt": Scuttlebutt,
    "scuttlebutt-gc": ScuttlebuttGC,
    "op-based": OpBased,
}
"""Registry of synchronizer factories keyed by the paper's labels."""

#: Extension protocols beyond the paper's evaluated set.
EXTRA_ALGORITHMS = {
    "merkle": MerkleSync,
}

__all__ = [
    "Message",
    "Send",
    "Synchronizer",
    "SynchronizerFactory",
    "StateBased",
    "DeltaBased",
    "classic",
    "delta_bp",
    "delta_rr",
    "delta_bp_rr",
    "Scuttlebutt",
    "ScuttlebuttGC",
    "OpBased",
    "MerkleSync",
    "EXTRA_ALGORITHMS",
    "KeyedDeltaBased",
    "keyed_classic",
    "keyed_bp",
    "keyed_rr",
    "keyed_bp_rr",
    "DigestExchange",
    "digest_driven_sync",
    "state_driven_sync",
    "full_state_sync",
    "ALGORITHMS",
]

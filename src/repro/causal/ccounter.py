"""Causal (resettable) counter: ``DotFun⟨MaxInt⟩``.

A counter supporting increments *and* a reset that zeroes the observed
count while letting concurrent increments survive — the semantics
behind shopping-cart quantities and resettable metrics.  Each replica
keeps its running tally under a single live dot; an increment replaces
the replica's own dot with a fresh one carrying the larger tally, and a
reset covers every observed dot.

The increment delta is a single dot-value pair — constant size, like
the paper's optimal GCounter ``incδ`` — and the reset delta carries no
payload at all, only the covered dots in its causal context.

One caveat inherited from the classic construction (the *embedded
counter* anomaly, Baquero et al., PaPoC 2016): because an increment
carries its replica's running tally onto the fresh dot, a reset
concurrent with replica *i*'s increment cancels nothing of *i*'s tally
— the observed portion rides along under the new dot.  Increments by
replicas the reset did observe (and that stayed quiet) are zeroed as
expected.
"""

from __future__ import annotations

from typing import Hashable, Set

from repro.causal.causal import Causal, cover_observed
from repro.causal.dots import CausalContext, Dot
from repro.causal.stores import DotFun
from repro.crdt.base import Crdt, delta_mutator, query
from repro.crdt.gcounter import positive
from repro.lattice.primitives import MaxInt


class CCounter(Crdt):
    """A resettable grow-only counter with optimal deltas.

    >>> a, b, c = CCounter("A"), CCounter("B"), CCounter("C")
    >>> _ = a.increment(3)
    >>> b.merge(a)
    >>> _ = b.reset()                      # observed a's 3, zeroes it
    >>> _ = c.increment(2)                 # concurrent, unobserved
    >>> a.merge(b); a.merge(c)
    >>> a.value
    2
    """

    __slots__ = ()

    bottom = staticmethod(Causal.fun_bottom)

    @delta_mutator
    def increment(replica: Hashable, state: Causal, by: int = 1) -> Causal:
        """Move this replica's tally, plus ``by``, onto a fresh dot."""
        tally = positive(by, "increment")
        covered: Set[Dot] = set()
        for own_dot, own_value in state.store.items():
            if own_dot.replica == replica:  # the replica's single live entry
                covered.add(own_dot)
                tally += own_value.value
                break
        dot = state.context.next_dot(replica)
        covered.add(dot)
        return Causal(DotFun({dot: MaxInt(tally)}), CausalContext.from_dots(covered))

    #: Cover every observed tally dot, shipping no payload.
    reset = delta_mutator(cover_observed)

    @query
    def value(state: Causal) -> int:
        """The sum of every surviving per-replica tally."""
        return sum(entry.value for entry in state.store.values())

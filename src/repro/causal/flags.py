"""Enable-wins and disable-wins flags over a :class:`DotSet` store.

The simplest causal CRDTs: a boolean whose conflicting concurrent
writes are resolved by policy.  The store holds the dots of the
"winning-side" events still in force:

* **EWFlag** — the store holds *enable* dots; the flag reads enabled
  when any survive.  An enable writes a fresh dot and covers the old
  ones; a disable covers them all.  A concurrent enable's dot is
  unknown to the disabler's context, so it survives the join: enable
  wins.
* **DWFlag** — the mirror image; the store holds *disable* dots and the
  flag reads enabled when none survive, so the flag starts enabled and
  concurrent disable wins.

Both mutators return the optimal delta: exactly one fresh dot (or
none), plus the covered dots in the delta's causal context.
"""

from __future__ import annotations

from typing import Hashable

from repro.causal.causal import Causal, cover_observed
from repro.causal.dots import CausalContext
from repro.causal.stores import DotSet
from repro.crdt.base import Crdt, delta_mutator, query


def _fresh_dot(replica: Hashable, state: Causal) -> Causal:
    """δ-mutator: one fresh dot, covering the observed ones."""
    dot = state.context.next_dot(replica)
    covered = set(state.store.dots())
    covered.add(dot)
    return Causal(DotSet((dot,)), CausalContext.from_dots(covered))


class EWFlag(Crdt):
    """An enable-wins boolean flag; starts disabled.

    >>> a, b = EWFlag("A"), EWFlag("B")
    >>> _ = a.enable()
    >>> b.merge(a); _ = b.disable()
    >>> _ = a.enable()                     # concurrent with b's disable
    >>> a.merge(b); b.merge(a)
    >>> a.enabled and b.enabled            # enable wins
    True
    """

    __slots__ = ()

    bottom = staticmethod(Causal.set_bottom)

    #: A fresh enable dot, covering the observed ones.
    enable = delta_mutator(_fresh_dot)
    #: Cover the observed enable dots (⊥ if already clear).
    disable = delta_mutator(cover_observed)
    #: True while at least one enable dot survives.
    enabled = query(lambda state: not state.store.is_empty)


class DWFlag(Crdt):
    """A disable-wins boolean flag; starts enabled.

    >>> a, b = DWFlag("A"), DWFlag("B")
    >>> _ = a.disable()
    >>> b.merge(a); _ = b.enable()
    >>> _ = a.disable()                    # concurrent with b's enable
    >>> a.merge(b); b.merge(a)
    >>> a.enabled or b.enabled             # disable wins
    False
    """

    __slots__ = ()

    bottom = staticmethod(Causal.set_bottom)

    #: A fresh disable dot, covering the observed ones.
    disable = delta_mutator(_fresh_dot)
    #: Cover the observed disable dots (⊥ if none).
    enable = delta_mutator(cover_observed)
    #: True while no disable dot survives.
    enabled = query(lambda state: state.store.is_empty)

"""Last-writer-wins register over a lexicographic pair.

Appendix B motivates the lexicographic product's typical CRDT use: a
chain-valued version as first component lets an actor overwrite the
second component arbitrarily while keeping the state an inflation (the
single-writer principle, as in Cassandra counters).  The LWW register
instantiates that pattern with a timestamp chain and a value chain:
higher timestamp wins outright; equal timestamps fall back to the value
order, giving a deterministic total tiebreak.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.crdt.base import Crdt, delta_mutator, query
from repro.lattice.lexicographic import LexPair
from repro.lattice.primitives import Chain, MaxInt

#: The value of an unwritten register, and the bottom of its value chain.
UNWRITTEN = ""


class LWWRegister(Crdt):
    """A register whose most recent write (by timestamp) wins.

    >>> r = LWWRegister("A")
    >>> _ = r.write("first", timestamp=1)
    >>> _ = r.write("second", timestamp=2)
    >>> r.value
    'second'
    """

    __slots__ = ()

    bottom = staticmethod(lambda: LexPair(MaxInt(0), Chain(UNWRITTEN, bottom=UNWRITTEN)))

    @delta_mutator
    def write(
        replica: Hashable, state: LexPair, value: Any, timestamp: int | None = None
    ) -> LexPair:
        """Write ``value``, bumping the version chain.

        When ``timestamp`` is omitted the current version plus one is
        used, which guarantees the write is visible locally.  Writes
        with stale timestamps lose against the current state and yield
        a bottom delta.
        """
        version = timestamp if timestamp is not None else state.first.value + 1
        candidate = LexPair(MaxInt(version), Chain(value, bottom=UNWRITTEN))
        return candidate.delta(state)

    @query
    def value(state: LexPair) -> Any:
        """The winning write's value."""
        return state.second.value

    @query
    def timestamp(state: LexPair) -> int:
        """The winning write's timestamp."""
        return state.first.value

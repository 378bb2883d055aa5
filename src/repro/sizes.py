"""Byte-size accounting for lattice payloads and protocol metadata.

The paper's bandwidth results are functions of *counted* sizes: numbers
of set elements and map entries for the micro-benchmarks (Table I), and
realistic byte sizes for the Retwis application — 20 B node identifiers
(Figure 9), 31 B tweet identifiers, and 270 B tweet bodies (Section
V-C, after the Facebook workload analysis of Atikoglu et al.).

:class:`SizeModel` turns a Python value into its serialized size:
strings count their UTF-8 bytes, integers a fixed word size, and tuples
the sum of their parts.  Experiments generate identifiers as strings of
the paper's exact lengths, so structural accounting reproduces the
paper's numbers without a custom registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class SizeModel:
    """Fixed per-atom byte sizes used when sizing payloads and metadata.

    Attributes:
        int_bytes: Serialized size of an integer (counter value,
            sequence number, timestamp).  The paper's protocols ship
            64-bit values, hence 8.
        bool_bytes: Serialized size of a boolean flag.
        tag_bytes: Size of a Left/Right linear-sum tag byte.
        id_bytes: Size of a replica/node identifier; Figure 9 states
            "each node identifier has size 20B".
        pointer_overhead: Per-stored-object bookkeeping overhead used by
            memory accounting (buffers and key-value stores keep one
            handle per entry).
    """

    int_bytes: int = 8
    bool_bytes: int = 1
    tag_bytes: int = 1
    id_bytes: int = 20
    pointer_overhead: int = 0

    def sizeof(self, value: Any) -> int:
        """Serialized byte size of an arbitrary payload atom.

        Strings count UTF-8 bytes; bytes count their length; integers
        and floats count :attr:`int_bytes`; booleans count
        :attr:`bool_bytes`; tuples and frozensets count the sum of their
        parts; ``None`` is free.  Unknown types fall back to the length
        of their ``repr``, which keeps accounting total rather than
        raising deep inside a simulation run.
        """
        if type(value) is str:
            # The common atom (map keys), with no encoded copy when ASCII.
            return len(value) if value.isascii() else len(value.encode("utf-8"))
        if value is None:
            return 0
        if isinstance(value, bool):
            return self.bool_bytes
        if isinstance(value, (int, float)):
            return self.int_bytes
        if isinstance(value, str):
            return len(value.encode("utf-8"))
        if isinstance(value, bytes):
            return len(value)
        if isinstance(value, (tuple, frozenset, list)):
            return sum(self.sizeof(part) for part in value)
        return len(repr(value))

    def vector_entry_bytes(self) -> int:
        """Size of one version-vector entry: a node id plus a counter.

        Scuttlebutt digests, Scuttlebutt-GC matrices and op-based causal
        clocks are all built from these entries (Figure 9).
        """
        return self.id_bytes + self.int_bytes

    def vector_bytes(self, entries: int) -> int:
        """Size of a version vector with ``entries`` entries."""
        return entries * self.vector_entry_bytes()


#: Default model matching the paper's constants (20 B ids, 64-bit ints).
DEFAULT_SIZE_MODEL = SizeModel()

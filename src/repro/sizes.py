"""Byte-size accounting for lattice payloads and protocol metadata.

The paper's bandwidth results are functions of *counted* sizes: numbers
of set elements and map entries for the micro-benchmarks (Table I), and
realistic byte sizes for the Retwis application — 20 B node identifiers
(Figure 9), 31 B tweet identifiers, and 270 B tweet bodies (Section
V-C, after the Facebook workload analysis of Atikoglu et al.).

The per-atom sizes below are the paper's constants, and :func:`sizeof`
turns a Python value into its serialized size: strings count their
UTF-8 bytes, integers a fixed word size, and tuples the sum of their
parts.  Experiments generate identifiers as strings of the paper's
exact lengths, so structural accounting reproduces the paper's numbers
without a custom registry.  Callers reach :func:`sizeof` through this
module (``sizes.sizeof``), so one patch of the module attribute sees
every call, the recursive ones included.
"""

from __future__ import annotations

from typing import Any

#: An integer (counter value, sequence number, timestamp): the paper's
#: protocols ship 64-bit values.
INT_BYTES = 8
#: A boolean flag.
BOOL_BYTES = 1
#: A Left/Right linear-sum tag.
TAG_BYTES = 1
#: A replica/node identifier; Figure 9 states "each node identifier has
#: size 20B".
ID_BYTES = 20
#: One version-vector entry, a node id plus a counter.  Scuttlebutt
#: digests, Scuttlebutt-GC matrices, op-based causal clocks and causal
#: contexts are all built from these entries (Figure 9).
VECTOR_ENTRY_BYTES = ID_BYTES + INT_BYTES


def sizeof(value: Any) -> int:
    """Serialized byte size of an arbitrary payload atom.

    Strings count UTF-8 bytes; bytes count their length; integers and
    floats count :data:`INT_BYTES`; booleans count :data:`BOOL_BYTES`;
    tuples and frozensets count the sum of their parts; ``None`` is
    free.  Unknown types fall back to the length of their ``repr``,
    which keeps accounting total rather than raising deep inside a
    simulation run.
    """
    if type(value) is str:
        # The common atom (map keys), with no encoded copy when ASCII.
        return len(value) if value.isascii() else len(value.encode("utf-8"))
    if value is None:
        return 0
    if isinstance(value, bool):
        return BOOL_BYTES
    if isinstance(value, (int, float)):
        return INT_BYTES
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (tuple, frozenset, list)):
        return sum(sizeof(part) for part in value)
    return len(repr(value))


def vector_bytes(entries: int) -> int:
    """Size of a version vector with ``entries`` entries."""
    return entries * VECTOR_ENTRY_BYTES

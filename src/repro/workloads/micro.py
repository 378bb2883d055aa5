"""The micro-benchmarks of Table I.

Every second each node synchronizes with its neighbours *and* executes
one update event over a single shared CRDT:

=========  ============================  ==============================
Type       Periodic event                 Measurement
=========  ============================  ==============================
GCounter   single increment               number of entries in the map
GSet       addition of a unique element   number of elements in the set
GMap K%    change the value of K/N% keys  number of entries in the map
=========  ============================  ==============================

For ``GMap K%`` each node refreshes its share of keys such that
globally K % of all 1000 keys are modified within each synchronization
interval; the GCounter benchmark is the particular case where 100 % of
the (per-replica) entries change every interval.  The paper runs 100
events per replica.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.lattice.base import Lattice
from repro.lattice.map_lattice import MapLattice
from repro.lattice.primitives import MaxInt
from repro.lattice.set_lattice import SetLattice
from repro.workloads.base import DeltaMutator, Workload


class GCounterWorkload(Workload):
    """One increment per node per round on a shared grow-only counter."""

    name = "gcounter"

    def __init__(self, n_nodes: int, rounds: int = 100) -> None:
        super().__init__(n_nodes, rounds)

    def bottom(self) -> Lattice:
        return MapLattice()

    def updates_for(self, round_index: int, node: int) -> Sequence[DeltaMutator]:
        def increment(state: Lattice, replica: int = node) -> Lattice:
            assert isinstance(state, MapLattice)
            current = state.get(replica)
            base = current.value if isinstance(current, MaxInt) else 0
            return MapLattice({replica: MaxInt(base + 1)})

        return (increment,)


class GSetWorkload(Workload):
    """One globally unique element added per node per round.

    Elements are fixed-width strings so byte-level accounting is
    uniform; ``element_bytes`` controls their serialized size.
    """

    name = "gset"

    def __init__(self, n_nodes: int, rounds: int = 100, element_bytes: int = 20) -> None:
        super().__init__(n_nodes, rounds)
        if element_bytes < 12:
            raise ValueError("element_bytes must be at least 12 to stay unique")
        self.element_bytes = element_bytes

    def bottom(self) -> Lattice:
        return SetLattice()

    def element(self, round_index: int, node: int) -> str:
        """The unique element ``node`` adds in ``round_index``."""
        tag = f"n{node:04d}r{round_index:05d}"
        return tag.ljust(self.element_bytes, "x")

    def updates_for(self, round_index: int, node: int) -> Sequence[DeltaMutator]:
        element = self.element(round_index, node)

        def add(state: Lattice, e: str = element) -> Lattice:
            assert isinstance(state, SetLattice)
            if e in state:
                return state.bottom_like()
            return SetLattice((e,))

        return (add,)


class GMapWorkload(Workload):
    """Refresh K % of a 1000-key grow-only map per interval, globally.

    Round ``r`` refreshes ``percent``·``total_keys``/100 keys, split
    fairly across nodes (shares differ by at most one key).  The slice
    rotates every round so the whole keyspace is exercised.  A refresh
    bumps the key's ``MaxInt`` value, guaranteeing every refresh is a
    strict inflation with something new to disseminate.
    """

    def __init__(
        self,
        n_nodes: int,
        percent: int,
        rounds: int = 100,
        total_keys: int = 1000,
    ) -> None:
        super().__init__(n_nodes, rounds)
        if not 0 < percent <= 100:
            raise ValueError(f"percent must be in (0, 100], got {percent}")
        self.percent = percent
        self.total_keys = total_keys
        self.name = f"gmap-{percent}"
        self.keys_per_round = max(1, (percent * total_keys) // 100)

    def bottom(self) -> Lattice:
        return MapLattice()

    def key(self, index: int) -> str:
        return f"key-{index % self.total_keys:04d}"

    def node_slice(self, round_index: int, node: int) -> List[str]:
        """The keys ``node`` refreshes in ``round_index``."""
        per_node, remainder = divmod(self.keys_per_round, self.n_nodes)
        share = per_node + (1 if node < remainder else 0)
        if share == 0:
            return []
        rotation = (round_index * self.keys_per_round) % self.total_keys
        offset = per_node * node + min(node, remainder)
        return [self.key(rotation + offset + i) for i in range(share)]

    def updates_for(self, round_index: int, node: int) -> Sequence[DeltaMutator]:
        keys = self.node_slice(round_index, node)
        if not keys:
            return ()

        def refresh(state: Lattice, batch: List[str] = keys) -> Lattice:
            assert isinstance(state, MapLattice)
            entries: Dict[str, MaxInt] = {}
            for key in batch:
                current = state.get(key)
                base = current.value if isinstance(current, MaxInt) else 0
                entries[key] = MaxInt(base + 1)
            return MapLattice(entries)

        return (refresh,)


def make_micro_workload(kind: str, n_nodes: int, rounds: int = 100) -> Workload:
    """Build a Table I workload by its paper label.

    Accepted kinds: ``"gcounter"``, ``"gset"``, and ``"gmap-K"`` for any
    integer percentage K (the paper uses 10, 30, 60, and 100).
    """
    if kind == "gcounter":
        return GCounterWorkload(n_nodes, rounds)
    if kind == "gset":
        return GSetWorkload(n_nodes, rounds)
    if kind.startswith("gmap-"):
        percent = int(kind.split("-", 1)[1])
        return GMapWorkload(n_nodes, percent, rounds)
    raise ValueError(f"unknown micro-benchmark {kind!r}")


#: The benchmark grid of Figures 7 and 8.
MICRO_BENCHMARKS = ("gcounter", "gset", "gmap-10", "gmap-30", "gmap-60", "gmap-100")

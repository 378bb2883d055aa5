"""Network topologies for synchronization experiments.

Figure 6 of the paper employs two 15-node overlays:

* a **partial mesh** where every node has 4 neighbours — links are
  redundant, the graph has cycles, and the same δ-group can reach a node
  along several paths (the RR optimization's target scenario);
* a **tree** with 3 neighbours per inner node (binary tree: parent plus
  two children), 2 for the root and 1 for the leaves — the optimal
  cycle-free propagation scenario where BP alone is sufficient.

The partial mesh is generated as a circulant graph (each node linked to
its ``k`` nearest ring neighbours on both sides), which is deterministic,
connected, regular, and rich in short cycles — matching the paper's
drawing.  The Retwis deployment (Section V-C) uses the same construction
with 50 nodes and degree 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple


@dataclass(frozen=True)
class Topology:
    """An undirected connected graph over node indices ``0..n-1``.

    Attributes:
        name: Human-readable label used in experiment reports.
        adjacency: Mapping from node index to its sorted neighbours.
    """

    name: str
    adjacency: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def from_edges(name: str, n: int, edges: Iterable[Tuple[int, int]]) -> "Topology":
        """Build a topology from an edge list, validating connectivity."""
        neighbour_sets: List[set] = [set() for _ in range(n)]
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for {n} nodes")
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            neighbour_sets[a].add(b)
            neighbour_sets[b].add(a)
        topology = Topology(name, tuple(tuple(sorted(s)) for s in neighbour_sets))
        if n > 1 and not topology.is_connected():
            raise ValueError(f"topology {name!r} is not connected")
        return topology

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.adjacency)

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Neighbours of ``node`` in ascending order."""
        return self.adjacency[node]

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def edges(self) -> List[Tuple[int, int]]:
        """Undirected edge list with ``a < b``."""
        out = []
        for a, neighbours in enumerate(self.adjacency):
            for b in neighbours:
                if a < b:
                    out.append((a, b))
        return out

    def edge_count(self) -> int:
        return len(self.edges())

    def is_connected(self) -> bool:
        """Breadth-first reachability from node 0."""
        if self.n == 0:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for neighbour in self.adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == self.n

    def is_tree(self) -> bool:
        """True when connected and acyclic (|E| = |V| - 1)."""
        return self.is_connected() and self.edge_count() == self.n - 1

    def has_cycles(self) -> bool:
        return not self.is_tree()

    def diameter(self) -> int:
        """Longest shortest path, by BFS from every node."""
        best = 0
        for source in range(self.n):
            dist: Dict[int, int] = {source: 0}
            frontier = [source]
            while frontier:
                nxt: List[int] = []
                for node in frontier:
                    for neighbour in self.adjacency[node]:
                        if neighbour not in dist:
                            dist[neighbour] = dist[node] + 1
                            nxt.append(neighbour)
                frontier = nxt
            best = max(best, max(dist.values()))
        return best


def partial_mesh(n: int = 15, degree: int = 4, name: str | None = None) -> Topology:
    """A ``degree``-regular circulant mesh on ``n`` nodes (Figure 6, left).

    Node ``i`` is linked to ``i ± 1, …, i ± degree/2`` modulo ``n``.  For
    odd ``degree`` (requires even ``n``) the antipodal link ``i + n/2``
    is added.  The default (15 nodes, degree 4) reproduces the paper's
    partial mesh; the Retwis runs use ``partial_mesh(50, 4)``.
    """
    if degree >= n:
        raise ValueError(f"degree {degree} must be below node count {n}")
    if degree % 2 == 1 and n % 2 == 1:
        raise ValueError("odd degree requires an even number of nodes")
    edges = set()
    for offset in range(1, degree // 2 + 1):
        for i in range(n):
            edges.add(tuple(sorted((i, (i + offset) % n))))
    if degree % 2 == 1:
        for i in range(n // 2):
            edges.add((i, i + n // 2))
    return Topology.from_edges(name or f"mesh({n},{degree})", n, sorted(edges))


def tree(n: int = 15, fanout: int = 2, name: str | None = None) -> Topology:
    """A complete ``fanout``-ary tree on ``n`` nodes (Figure 6, right).

    With the defaults (15 nodes, binary) every inner node has 3
    neighbours, the root 2, and the leaves 1 — exactly the paper's tree.
    """
    if fanout < 1:
        raise ValueError("fanout must be at least 1")
    edges = []
    for child in range(1, n):
        parent = (child - 1) // fanout
        edges.append((parent, child))
    return Topology.from_edges(name or f"tree({n},{fanout})", n, edges)


def ring(n: int, name: str | None = None) -> Topology:
    """A simple cycle — the smallest topology with link redundancy."""
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Topology.from_edges(name or f"ring({n})", n, edges)


def line(n: int, name: str | None = None) -> Topology:
    """A path graph — a degenerate tree, useful in unit tests."""
    if n < 2:
        raise ValueError("a line needs at least 2 nodes")
    edges = [(i, i + 1) for i in range(n - 1)]
    return Topology.from_edges(name or f"line({n})", n, edges)


def star(n: int, name: str | None = None) -> Topology:
    """A hub-and-spoke tree with node 0 at the centre."""
    if n < 2:
        raise ValueError("a star needs at least 2 nodes")
    edges = [(0, i) for i in range(1, n)]
    return Topology.from_edges(name or f"star({n})", n, edges)


def full_mesh(n: int, name: str | None = None) -> Topology:
    """All-to-all connectivity, as assumed by original Scuttlebutt."""
    if n < 2:
        raise ValueError("a full mesh needs at least 2 nodes")
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Topology.from_edges(name or f"full({n})", n, edges)

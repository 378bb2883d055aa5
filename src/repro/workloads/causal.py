"""Causal (add/remove) workloads — the Appendix B evaluation substrate.

The paper's micro-benchmarks (Table I) only grow; its Appendix B argues
the decomposition machinery extends to the CRDTs used in practice,
whose defining feature is *removal*.  These workloads drive the causal
types through the same deterministic-schedule interface as the Table I
generators, so the whole protocol suite can be compared on
observed-remove data with one line changed.

``AWSetChurnWorkload`` is the canonical case: every node adds or
removes elements of a shared pool each round, at a configurable
add/remove mix.  Schedules are pre-generated from the seed, so every
algorithm replays the identical operation sequence.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.causal import AWSet, Causal
from repro.lattice.base import Lattice
from repro.workloads.base import DeltaMutator, Workload


class AWSetChurnWorkload(Workload):
    """Random adds/removes over a shared element pool (add-wins set).

    Args:
        n_nodes: Replica count.
        rounds: Update rounds (one operation per node per round).
        pool_size: Number of distinct elements being churned; smaller
            pools mean more concurrent operations on the same element
            (contention), the regime where conflict policies matter.
        add_ratio: Probability an operation is an add (the rest are
            removes of the same pool).
        element_bytes: Serialized size of each element.
        seed: Schedule seed; two workloads with equal parameters
            generate identical schedules.
    """

    def __init__(
        self,
        n_nodes: int,
        rounds: int = 100,
        pool_size: int = 40,
        add_ratio: float = 0.7,
        element_bytes: int = 20,
        seed: int = 97,
    ) -> None:
        super().__init__(n_nodes, rounds)
        if pool_size < 1:
            raise ValueError("pool_size must be positive")
        if not 0.0 < add_ratio <= 1.0:
            raise ValueError(f"add_ratio must be in (0, 1], got {add_ratio}")
        self.name = f"awset-churn-{int(add_ratio * 100)}"
        self.pool = [
            f"item-{i:05d}".ljust(element_bytes, "x") for i in range(pool_size)
        ]
        rng = random.Random(seed)
        #: schedule[round][node] = ("add" | "remove", element)
        self.schedule: List[List[Tuple[str, str]]] = [
            [
                (
                    "add" if rng.random() < add_ratio else "remove",
                    rng.choice(self.pool),
                )
                for _ in range(n_nodes)
            ]
            for _ in range(rounds)
        ]

    def bottom(self) -> Lattice:
        return Causal.map_bottom()

    def updates_for(self, round_index: int, node: int) -> Sequence[DeltaMutator]:
        kind, element = self.schedule[round_index][node]
        mutator = AWSet.mutators[kind]
        return (lambda state: mutator(node, state, element),)

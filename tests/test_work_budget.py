"""Work budgets: exact operation counts for one paper cell.

Seconds drift with the host; the work a deterministic run does does
not.  Each budget here replays one cell of the paper in the simulator
with counting wrappers around the operations that cost, and pins the
counts exactly, so a change that makes the same run do more (or less)
work fails by name, and a claimed speedup has a count beside it.

Table I's GMap 10 % on the 15-node partial mesh of Figure 6, under
BP+RR, the paper's best configuration (twenty rounds, then the drain):

* ``MaxInt.delta`` — RR's Δ recursing into a binding.  A binding the
  replica already holds as the very same object is skipped
  (``lattice/map_lattice.py``, *Aliased bindings*).
* ``MaxInt.size_units`` + ``MaxInt.size_bytes`` — the per-value size
  reads behind message sizes and memory samples.  Rebinding a counter
  owes no size (``fixed_size``, *Size lineage*).
* ``SizeModel.sizeof`` — per-atom byte sizing.

The transmitted bytes and the drain are pinned beside them: they are
the paper's metric and must not move when the work does.
"""

from collections import Counter

import pytest

from repro.lattice import MaxInt
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import partial_mesh
from repro.sizes import SizeModel
from repro.sync import delta_bp_rr
from repro.workloads.micro import GMapWorkload

COUNTED = ("delta", "size_units", "size_bytes")


class CountingModel(SizeModel):
    """A ``SizeModel`` that counts the atoms it is asked to size."""

    def __init__(self, counts: Counter) -> None:
        super().__init__()
        self.counts = counts

    def sizeof(self, value):
        self.counts["sizeof"] += 1
        return super().sizeof(value)


@pytest.fixture
def counts():
    """Count calls of ``COUNTED`` on ``MaxInt``; put the originals back."""
    tally = Counter()
    originals = {name: vars(MaxInt)[name] for name in COUNTED}

    def counting(name, method):
        def wrapper(*args):
            tally[name] += 1
            return method(*args)

        return wrapper

    for name, method in originals.items():
        setattr(MaxInt, name, counting(name, method))
    try:
        yield tally
    finally:
        for name, method in originals.items():
            setattr(MaxInt, name, method)
        assert all(vars(MaxInt)[name] is method for name, method in originals.items())


def test_gmap_10_under_bp_rr(counts):
    workload = GMapWorkload(15, 10, 20)
    config = ClusterConfig(topology=partial_mesh(15, 4), size_model=CountingModel(counts))
    cluster = Cluster(config, delta_bp_rr, workload.bottom())
    cluster.run_rounds(workload.rounds, workload.updates_for)
    drain = cluster.drain()
    assert cluster.converged()
    assert (drain, cluster.metrics.total_bytes()) == (3, 1_473_440)
    assert {
        "MaxInt.delta": counts["delta"],
        "MaxInt size reads": counts["size_units"] + counts["size_bytes"],
        "sizeof": counts["sizeof"],
    } == {
        "MaxInt.delta": 14_000,
        "MaxInt size reads": 89_200,
        "sizeof": 45_908,
    }

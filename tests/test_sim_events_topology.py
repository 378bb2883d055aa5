"""Unit tests for the event queue, the simulator's records and the
overlay topologies."""

import pytest

from repro.sim.events import Event, EventQueue
from repro.sim.metrics import MemorySample, MessageRecord
from repro.sim.topology import (
    Topology,
    full_mesh,
    line,
    partial_mesh,
    ring,
    star,
    tree,
)


class TestEventQueue:
    def test_fires_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(5.0, lambda e: fired.append("late"))
        q.schedule(1.0, lambda e: fired.append("early"))
        q.run()
        assert fired == ["early", "late"]

    def test_ties_break_by_scheduling_order(self):
        q = EventQueue()
        fired = []
        for tag in ("first", "second", "third"):
            q.schedule(1.0, lambda e, t=tag: fired.append(t))
        q.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances(self):
        q = EventQueue()
        q.schedule(3.0, lambda e: None)
        q.step()
        assert q.now == 3.0

    def test_cannot_schedule_in_the_past(self):
        q = EventQueue()
        q.schedule(3.0, lambda e: None)
        q.step()
        with pytest.raises(ValueError):
            q.schedule(1.0, lambda e: None)

    def test_schedule_in_relative(self):
        q = EventQueue()
        q.schedule(2.0, lambda e: q.schedule_in(5.0, lambda e2: None))
        q.step()
        assert len(q) == 1
        q.step()
        assert q.now == 7.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule_in(-1.0, lambda e: None)

    def test_run_until_horizon(self):
        q = EventQueue()
        fired = []
        for t in (1.0, 2.0, 3.0):
            q.schedule(t, lambda e, t=t: fired.append(t))
        count = q.run(until=2.0)
        assert count == 2
        assert fired == [1.0, 2.0]
        assert len(q) == 1

    def test_run_max_events(self):
        q = EventQueue()
        for t in range(10):
            q.schedule(float(t), lambda e: None)
        assert q.run(max_events=4) == 4

    def test_events_can_schedule_more_events(self):
        q = EventQueue()
        fired = []

        def cascade(event):
            fired.append(event.time)
            if event.time < 3:
                q.schedule_in(1.0, cascade)

        q.schedule(1.0, cascade)
        q.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_ties_never_compare_actions_or_payloads(self):
        """Same-time events pop in scheduling order even when neither
        their actions nor their payloads support ``<``."""
        q = EventQueue()
        fired = []
        for tag in range(6):
            q.schedule(2.0, lambda e: fired.append(e.payload["tag"]), payload={"tag": tag})
            q.schedule(1.0, lambda e, tag=tag: fired.append(-tag))
        q.run()
        assert fired == [0, -1, -2, -3, -4, -5, 0, 1, 2, 3, 4, 5]


RECORDS = [
    Event(1.0, 0, print, {"payload": 1}),
    MessageRecord(1.0, 0, 1, "delta", 5, 50, 8),
    MemorySample(1.0, 0, 10, 5, 100, 50, 7),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


class TestPartialMesh:
    def test_paper_mesh_is_4_regular_on_15_nodes(self):
        topo = partial_mesh(15, 4)
        assert topo.n == 15
        assert all(topo.degree(i) == 4 for i in range(15))
        assert topo.edge_count() == 30

    def test_mesh_has_cycles(self):
        assert partial_mesh(15, 4).has_cycles()

    def test_retwis_mesh(self):
        topo = partial_mesh(50, 4)
        assert topo.n == 50
        assert all(topo.degree(i) == 4 for i in range(50))

    def test_connected(self):
        assert partial_mesh(15, 4).is_connected()

    def test_odd_degree_needs_even_nodes(self):
        with pytest.raises(ValueError):
            partial_mesh(15, 3)
        topo = partial_mesh(16, 3)
        assert all(topo.degree(i) == 3 for i in range(16))

    def test_degree_must_be_below_n(self):
        with pytest.raises(ValueError):
            partial_mesh(4, 4)


class TestTree:
    def test_paper_tree_shape(self):
        """Root has 2 neighbours, inner nodes 3, leaves 1 (Figure 6)."""
        topo = tree(15, 2)
        assert topo.degree(0) == 2
        inner = [i for i in range(1, 7)]
        for node in inner:
            assert topo.degree(node) == 3
        leaves = [i for i in range(7, 15)]
        for node in leaves:
            assert topo.degree(node) == 1

    def test_is_acyclic(self):
        topo = tree(15, 2)
        assert topo.is_tree()
        assert not topo.has_cycles()

    def test_edge_count(self):
        assert tree(15, 2).edge_count() == 14


class TestOtherTopologies:
    def test_ring(self):
        topo = ring(6)
        assert all(topo.degree(i) == 2 for i in range(6))
        assert topo.has_cycles()

    def test_line(self):
        topo = line(5)
        assert topo.is_tree()
        assert topo.degree(0) == topo.degree(4) == 1

    def test_star(self):
        topo = star(7)
        assert topo.degree(0) == 6
        assert topo.is_tree()

    def test_full_mesh(self):
        topo = full_mesh(5)
        assert all(topo.degree(i) == 4 for i in range(5))
        assert topo.edge_count() == 10

    def test_diameter(self):
        assert line(5).diameter() == 4
        assert full_mesh(5).diameter() == 1
        assert ring(6).diameter() == 3

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ring(2)
        with pytest.raises(ValueError):
            line(1)
        with pytest.raises(ValueError):
            star(1)
        with pytest.raises(ValueError):
            full_mesh(1)


class TestTopologyValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Topology.from_edges("bad", 3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Topology.from_edges("bad", 3, [(0, 5)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            Topology.from_edges("bad", 4, [(0, 1), (2, 3)])

    def test_neighbors_sorted(self):
        topo = Topology.from_edges("t", 4, [(2, 0), (0, 1), (0, 3)])
        assert topo.neighbors(0) == (1, 2, 3)

    def test_edges_normalized(self):
        topo = Topology.from_edges("t", 3, [(2, 1), (1, 0)])
        assert topo.edges() == [(0, 1), (1, 2)]

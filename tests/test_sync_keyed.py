"""Tests for per-object (keyed) delta-based synchronization."""

import pytest

from repro.lattice import MapLattice, SetLattice
from repro.sim.runner import run_experiment, run_suite
from repro.sim.topology import partial_mesh
from repro.sizes import SizeModel
from repro.sync import (
    KeyedDeltaBased,
    keyed_bp,
    keyed_bp_rr,
    keyed_classic,
    keyed_rr,
)
from repro.sync.protocol import Message
from repro.workloads import RetwisWorkload
from repro.workloads.base import Workload

MODEL = SizeModel()


def store_add(key, element):
    """δ-mutator: add ``element`` to the set object under ``key``."""

    def mutator(state):
        current = state.get(key)
        if isinstance(current, SetLattice) and element in current:
            return state.bottom_like()
        return MapLattice({key: SetLattice((element,))})

    return mutator


def make(replica, neighbors, **flags):
    return KeyedDeltaBased(
        replica, neighbors, MapLattice(), n_nodes=4, size_model=MODEL, **flags
    )


def bundle(entries):
    payload = MapLattice(entries)
    return Message(
        "keyed-delta",
        payload,
        payload.size_units(),
        payload.size_bytes(MODEL),
        MODEL.int_bytes,
        1,
    )


class TestKeyedGranularity:
    """What only the keyed class says: one instance of Algorithm 1 per
    object.  The mechanics all three classes share (within one object,
    too) are in ``test_sync_delta_contract.py``."""

    def test_requires_map_state(self):
        with pytest.raises(TypeError):
            KeyedDeltaBased(0, [1], SetLattice(), 2, MODEL)

    def test_local_update_splits_per_object(self):
        node = make(0, [1])

        def multi(state):
            return MapLattice({"a": SetLattice({"x"}), "b": SetLattice({"y"})})

        node.local_update(multi)
        assert len(node.buffer) == 2
        assert {key for key, _, _ in node.buffer} == {"a", "b"}

    def test_sync_bundles_objects(self):
        node = make(0, [1])
        node.local_update(store_add("a", "x"))
        node.local_update(store_add("b", "y"))
        [send] = node.sync_messages()
        assert send.message.kind == "keyed-delta"
        assert send.message.payload == MapLattice(
            {"a": SetLattice({"x"}), "b": SetLattice({"y"})}
        )
        assert not node.buffer

    def test_classic_check_is_per_object(self):
        """A dominated object is dropped even when others inflate: only
        the hot object is forwarded, though one bundle carried both."""
        node = make(0, [1, 2])
        node.local_update(store_add("cold", "x"))
        node.sync_messages()
        incoming = bundle(
            {"cold": SetLattice({"x"}), "hot": SetLattice({"new"})}
        )
        node.handle_message(1, incoming)
        by_dst = {send.dst: send.message.payload for send in node.sync_messages()}
        assert by_dst[2] == MapLattice({"hot": SetLattice({"new"})})

    def test_rr_extracts_per_object_against_that_object(self):
        """∆ is taken against the local copy of the same object, and an
        object this replica never held is new as a whole."""
        node = make(0, [1, 2], rr=True)
        node.local_update(store_add("held", "x"))
        node.sync_messages()
        incoming = bundle(
            {"held": SetLattice({"x", "y"}), "fresh": SetLattice({"x"})}
        )
        node.handle_message(1, incoming)
        by_dst = {send.dst: send.message.payload for send in node.sync_messages()}
        assert by_dst[2] == MapLattice(
            {"held": SetLattice({"y"}), "fresh": SetLattice({"x"})}
        )

    def test_memory_accounting_counts_keys(self):
        node = make(0, [1], bp=True)
        node.local_update(store_add("obj", "abcd"))
        node.local_update(store_add("other", "ef"))
        assert node.buffer_units() == 2
        assert node.buffer_bytes() == (3 + 4) + (5 + 2)  # key + element, twice
        assert node.metadata_units() == 2 + 1  # two origin tags, one neighbour


class MultiObjectWorkload(Workload):
    """Two nodes repeatedly updating a hot object plus cold objects."""

    name = "multi-object"

    def __init__(self, n_nodes, rounds):
        super().__init__(n_nodes, rounds)

    def bottom(self):
        return MapLattice()

    def updates_for(self, round_index, node):
        return (
            store_add("hot", f"h-{round_index}-{node}"),
            store_add(f"cold-{node}", f"c-{round_index}-{node}"),
        )


class TestKeyedConvergence:
    def test_all_variants_converge(self):
        topo = partial_mesh(6, 2)
        for factory in (keyed_classic, keyed_bp, keyed_rr, keyed_bp_rr):
            result = run_experiment(factory, MultiObjectWorkload(6, 5), topo)
            assert result.converged
            assert result.final_state_units == 2 * 6 * 5

    def test_retwis_contention_hits_classic_not_bprr(self):
        """Per-object classic degrades with same-object concurrency."""
        topo = partial_mesh(6, 2)
        results = run_suite(
            {"classic": keyed_classic, "bp-rr": keyed_bp_rr},
            lambda: MultiObjectWorkload(6, 6),
            topo,
        )
        assert (
            results["classic"].transmission_units()
            > results["bp-rr"].transmission_units()
        )

    def test_retwis_workload_end_to_end(self):
        topo = partial_mesh(6, 2)
        workload = RetwisWorkload(6, users=50, rounds=5, ops_per_node=3, seed=3)
        result = run_experiment(keyed_bp_rr, workload, topo)
        assert result.converged

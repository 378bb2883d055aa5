#!/usr/bin/env python
"""A collaborative shopping cart on composed CRDTs, fully synchronized.

A small e-commerce scenario exercising the CRDT catalogue beyond the
paper's micro-benchmarks:

* the cart's item quantities — a PNCounter per item (add/remove);
* the wishlist — a 2P-Set (items can be dismissed for good);
* the delivery note — an LWW register (last edit wins);
* the chosen payment method — an MV register (concurrent choices
  surface as a conflict for the app to resolve).

Three family members edit from three devices; delta-based BP+RR
synchronization over a simulated ring converges everything.

Run with::

    python examples/collaborative_shopping.py
"""

from repro import (
    CausalMVRegister,
    LWWRegister,
    MapLattice,
    PNCounter,
    TwoPSet,
)
from repro.lattice import Lattice
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import ring
from repro.sync import keyed_bp_rr
from repro.workloads.base import Workload


class CartWorkload(Workload):
    """Scripted concurrent edits from three devices."""

    name = "shopping-cart"

    def __init__(self):
        super().__init__(n_nodes=3, rounds=3)
        # Per (round, device): a list of (object key, CRDT edit).
        self.script = {
            (0, 0): [
                ("cart:milk", ("inc", 2)),
                ("wish:drone", ("wish-add",)),
                # Concurrent with device 2's choice below: neither has
                # seen the other yet, so the MV register keeps both.
                ("pay", ("choose", "gift-card")),
            ],
            (0, 1): [("cart:milk", ("inc", 1)), ("note", ("write", "leave at door"))],
            (0, 2): [("pay", ("choose", "credit-card"))],
            (1, 0): [("cart:milk", ("dec", 1))],
            (1, 1): [("wish:drone", ("wish-drop",)), ("wish:lego", ("wish-add",))],
            (1, 2): [("note", ("write", "ring the bell twice"))],
            (2, 0): [("cart:eggs", ("inc", 12))],
            (2, 2): [("cart:eggs", ("inc", 6))],
        }

    def bottom(self) -> Lattice:
        return MapLattice()

    def updates_for(self, round_index, node):
        edits = self.script.get((round_index, node), [])
        mutators = []
        for key, edit in edits:
            mutators.append(self._mutator(node, key, edit))
        return mutators

    def _mutator(self, device, key, edit):
        def apply(state: MapLattice) -> MapLattice:
            current = state.get(key)
            kind = edit[0]
            if kind in ("inc", "dec"):
                counter = PNCounter(device, state=current) if current else PNCounter(device)
                delta = (
                    counter.increment(edit[1]) if kind == "inc" else counter.decrement(edit[1])
                )
            elif kind in ("wish-add", "wish-drop"):
                wish = TwoPSet(device, state=current) if current else TwoPSet(device)
                item = key.split(":", 1)[1]
                delta = wish.add(item) if kind == "wish-add" else wish.remove(item)
            elif kind == "write":
                note = LWWRegister(device, state=current) if current else LWWRegister(device)
                delta = note.write(edit[1])
            elif kind == "choose":
                pay = (
                    CausalMVRegister(device, state=current)
                    if current
                    else CausalMVRegister(device)
                )
                delta = pay.write(edit[1])
            else:  # pragma: no cover - script is fixed
                raise ValueError(kind)
            if delta.is_bottom:
                return state.bottom_like()
            return MapLattice({key: delta})

        return apply


def main() -> None:
    workload = CartWorkload()
    cluster = Cluster(ClusterConfig(ring(3)), keyed_bp_rr, workload.bottom())
    cluster.run_rounds(workload.rounds, workload.updates_for)
    cluster.drain()
    assert cluster.converged(), "ring synchronization must converge"

    state = cluster.nodes[1].state  # any replica: they are identical
    milk = PNCounter("reader", state=state.get("cart:milk"))
    eggs = PNCounter("reader", state=state.get("cart:eggs"))
    drone = TwoPSet("reader", state=state.get("wish:drone"))
    lego = TwoPSet("reader", state=state.get("wish:lego"))
    note = LWWRegister("reader", state=state.get("note"))
    pay = CausalMVRegister("reader", state=state.get("pay"))

    print("=== converged cart (read from any device) ===")
    print(f"milk: {milk.value}   (2 + 1 added, 1 removed)")
    print(f"eggs: {eggs.value}  (12 + 6 added concurrently)")
    print(f"wishlist drone: {'drone' in drone}  (added, then dismissed for good)")
    print(f"wishlist lego:  {'lego' in lego}")
    print(f"delivery note: {note.value!r} (last writer wins)")
    print(f"payment method: {sorted(pay.values)} — concurrent choices kept for the app")


if __name__ == "__main__":
    main()

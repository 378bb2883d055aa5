#!/usr/bin/env python
"""Quickstart: CRDTs, join decompositions, and optimal deltas.

Walks through the paper's core ideas on the two running examples
(GCounter, GSet):

1. replicas mutate locally and merge without coordination;
2. every state has a unique irredundant join decomposition ``⇓x``;
3. the optimal delta ``∆(a, b)`` ships exactly what the other replica
   is missing — never more.

Run with::

    python examples/quickstart.py
"""

from repro import GCounter, GSet, decomposition, delta


def counters() -> None:
    print("=== Grow-only counter (Figure 2a) ===")
    alice, bob = GCounter("alice"), GCounter("bob")

    alice.increment()
    alice.increment()
    bob.increment(by=5)
    print(f"alice sees {alice.value}, bob sees {bob.value}")

    # State-based sync: exchange and join full states — always safe,
    # converges even if messages are duplicated or reordered.
    alice.merge(bob)
    bob.merge(alice)
    print(f"after merge both see {alice.value} == {bob.value}")

    # The δ-mutator returns just the updated entry, not the whole map.
    d = alice.increment()
    print(f"one increment produces the delta {d} ({d.size_units()} entry)\n")


def sets_and_decompositions() -> None:
    print("=== Grow-only set, decompositions, optimal deltas (§III) ===")
    a, b = GSet("A"), GSet("B")
    for fruit in ("apple", "banana", "cherry"):
        a.add(fruit)
    for fruit in ("banana", "dragonfruit"):
        b.add(fruit)

    print(f"A = {sorted(a.value)}")
    print(f"B = {sorted(b.value)}")

    # ⇓x: the unique irredundant join decomposition — the singletons.
    parts = decomposition(a.state)
    print(f"⇓A has {len(parts)} join-irreducibles: {sorted(p for part in parts for p in part.elements)}")

    # ∆(a, b): the minimum state that brings B up to date with A.
    missing = delta(a.state, b.state)
    print(f"∆(A, B) = {sorted(missing.elements)}  (never re-ships 'banana')")

    b.merge(missing)
    a.merge(delta(b.state, a.state))
    assert a.state == b.state
    print(f"converged on {sorted(a.value)}\n")


def derived_delta_mutators() -> None:
    print("=== Deriving optimal δ-mutators: mδ(x) = ∆(m(x), x) (§III-B) ===")
    from repro import optimal_delta_mutator, SetLattice

    add_kiwi = optimal_delta_mutator(lambda s: s.add("kiwi"))
    fresh = SetLattice({"apple"})
    print(f"adding 'kiwi' to {sorted(fresh.elements)} → delta {add_kiwi(fresh)}")
    already = SetLattice({"kiwi", "apple"})
    print(f"adding 'kiwi' to {sorted(already.elements)} → delta is bottom: "
          f"{add_kiwi(already).is_bottom}")


if __name__ == "__main__":
    counters()
    sets_and_decompositions()
    derived_delta_mutators()

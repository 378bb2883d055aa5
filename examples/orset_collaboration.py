#!/usr/bin/env python
"""Collaborative task board on causal CRDTs (adds *and* removes).

A three-person team curates a shared task board while occasionally
offline.  The board is an observed-remove map of task name → assignee
register, backed by an add-wins set of labels per task — data types
beyond the paper's grow-only examples, synchronized with the very same
optimal-delta machinery (the paper's Appendix B claim, live):

1. concurrent edits to different tasks merge cleanly;
2. removing a task only cancels the edits the remover has *seen* — a
   concurrent assignment resurrects nothing but survives by design;
3. every mutation ships an optimal delta: one fresh dot (or none), no
   tombstoned payload.

Run with::

    python examples/orset_collaboration.py
"""

from repro import AWSet, CausalMVRegister, ORMap


def show(title, board):
    tasks = ", ".join(sorted(board.keys())) or "(empty)"
    print(f"{title:28s} {tasks}")


def labels_of(person, board, task):
    view = AWSet(person.replica, board.value_view(task, AWSet))
    return sorted(view.value)


def main() -> None:
    print("=== Shared task labels: add-wins set under concurrency ===")
    ana, bo = AWSet("ana"), AWSet("bo")
    ana.add("urgent")
    ana.add("backend")
    bo.merge(ana)

    # Bo prunes 'urgent' while Ana — offline — re-confirms it.
    removal = bo.remove("urgent")
    readd = ana.add("urgent")
    print(f"bo's removal delta carries no payload: store empty = "
          f"{removal.store.is_empty}, context entries = {removal.context.size_units()}")

    ana.merge(removal)
    bo.merge(readd)
    assert ana.state == bo.state
    print(f"after exchange both see {sorted(ana.value)} — the concurrent add wins\n")

    print("=== Task board: OR-map of assignee registers ===")
    board_ana = ORMap("ana")
    board_bo = ORMap("bo")

    board_ana.update("ship-v2", CausalMVRegister, "write", "ana")
    board_ana.update("fix-login", CausalMVRegister, "write", "bo")
    board_bo.merge(board_ana)
    show("initial board:", board_ana)

    # Bo closes 'fix-login'; concurrently Ana reassigns it to Cai.
    closing = board_bo.remove("fix-login")
    board_ana.update("fix-login", CausalMVRegister, "write", "cai")

    board_ana.merge(closing)
    board_bo.merge(board_ana)
    assert board_ana.state == board_bo.state
    show("after concurrent close/edit:", board_ana)
    assignees = set(
        CausalMVRegister.values(board_ana.value_view("fix-login", CausalMVRegister))
    )
    print(f"'fix-login' survives with assignee {assignees} — only the observed "
          "edit was cancelled\n")

    print("=== Optimal deltas under churn ===")
    churn = AWSet("ana")
    for i in range(1000):
        churn.add(f"task-{i}")
        churn.remove(f"task-{i}")
    print(f"1000 add/remove cycles leave {len(churn)} elements, a store of "
          f"{churn.state.store.size_units()} entries and a context of "
          f"{churn.state.context.size_units()} compact entry — no tombstone growth")


if __name__ == "__main__":
    main()

"""Intraprocedural control-flow graphs and a small dataflow engine.

The ``resource-typestate`` rule (:mod:`repro.lint.rules.typestate`)
needs more than "does this name appear somewhere in the function" — it
asks *"is there a path from this ``fence()`` to a function exit that
skips the ``unfence()``?"*, and error paths are exactly where lexical matching goes blind.  This
module builds a conservative CFG per function and solves forward
dataflow problems over it:

* every simple statement is one node; ``if``/``while``/``for``/
  ``with``/``try`` contribute a head node plus their bodies;
* any statement that *can raise* (contains a call, a ``raise``, or an
  ``assert``) gets an **exceptional edge** — to the innermost enclosing
  handler if one is in scope, otherwise to the function's error exit.
  That is the approximation that makes "missed release on an error
  path" a reachability question;
* ``finally`` blocks are modelled on the normal path and as the relay
  of the exceptional path (body raises → finally → outer handler or
  error exit), which is sound for may-analyses;
* ``return`` edges to the normal exit, ``raise`` to the error exit,
  ``break``/``continue`` to their loop targets.

The solver is a deterministic worklist: node order is AST order, joins
are set union (**may**) or intersection (**must**), and transfer
functions are supplied by the caller as ``(node, state) -> state``.
Everything here is a pure function of the AST, so analysis results are
independent of module discovery order — a property the test suite
pins.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.lint.astutil import FunctionNode

#: Node kinds; ``stmt`` carries the AST statement, the exits carry None.
ENTRY = "entry"
STATEMENT = "statement"
NORMAL_EXIT = "normal-exit"
ERROR_EXIT = "error-exit"


@dataclass
class CfgNode:
    """One CFG node: a statement, or one of the three markers."""

    index: int
    kind: str
    stmt: Optional[ast.stmt] = None
    #: Normal-flow successor indices.
    successors: List[int] = field(default_factory=list)
    #: Exceptional successors (taken only if the statement raises).
    raise_successors: List[int] = field(default_factory=list)

    def all_successors(self) -> List[int]:
        return self.successors + self.raise_successors


@dataclass
class Cfg:
    """The graph for one function body."""

    nodes: List[CfgNode]
    entry: int
    normal_exit: int
    error_exit: int

    def node(self, index: int) -> CfgNode:
        return self.nodes[index]

    @property
    def exits(self) -> Tuple[int, int]:
        return (self.normal_exit, self.error_exit)


def _can_raise(stmt: ast.stmt) -> bool:
    """Whether a statement gets an exceptional edge.

    The approximation: calls, explicit raises, and asserts can raise;
    pure data plumbing (constant assigns, ``pass``) cannot.  Attribute
    and subscript access can raise too in principle, but modelling them
    drowns the signal — a documented give-up.
    """
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Call, ast.Raise, ast.Assert, ast.Await)):
            return True
        # Do not descend into nested function/class bodies: their
        # statements execute at *their* call time, not here.
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and node is not stmt:
            return False
    return False


class _Builder:
    """Recursive statement-list walker producing the CFG."""

    def __init__(self) -> None:
        self.nodes: List[CfgNode] = []

    def new_node(self, kind: str, stmt: Optional[ast.stmt] = None) -> int:
        node = CfgNode(index=len(self.nodes), kind=kind, stmt=stmt)
        self.nodes.append(node)
        return node.index

    def build(self, function: FunctionNode) -> Cfg:
        entry = self.new_node(ENTRY)
        normal_exit = self.new_node(NORMAL_EXIT)
        error_exit = self.new_node(ERROR_EXIT)
        self._normal_exit = normal_exit
        self._error_exit = error_exit
        #: Stack of (break targets, continue targets) for loops.
        self._loops: List[Tuple[List[int], List[int]]] = []
        #: Stack of exceptional-edge targets (innermost last); each
        #: entry is the node a raise inside that region jumps to.
        self._handlers: List[int] = []
        tails = self._body(function.body, [entry])
        for tail in tails:
            self.nodes[tail].successors.append(normal_exit)
        return Cfg(
            nodes=self.nodes,
            entry=entry,
            normal_exit=normal_exit,
            error_exit=error_exit,
        )

    # -- plumbing ------------------------------------------------------

    def _raise_target(self) -> int:
        return self._handlers[-1] if self._handlers else self._error_exit

    def _link(self, tails: Sequence[int], target: int) -> None:
        for tail in tails:
            self.nodes[tail].successors.append(target)

    def _body(self, stmts: Sequence[ast.stmt], frontier: List[int]) -> List[int]:
        """Wire a statement list; returns the fall-through tails."""
        for stmt in stmts:
            if not frontier:
                break  # unreachable code after return/raise/break
            frontier = self._statement(stmt, frontier)
        return frontier

    # -- statements ----------------------------------------------------

    def _statement(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        if isinstance(stmt, (ast.If,)):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        # Simple statement: one node.
        index = self.new_node(STATEMENT, stmt)
        self._link(frontier, index)
        if _can_raise(stmt):
            self.nodes[index].raise_successors.append(self._raise_target())
        if isinstance(stmt, ast.Return):
            self.nodes[index].successors.append(self._normal_exit)
            return []
        if isinstance(stmt, ast.Raise):
            self.nodes[index].successors.append(self._raise_target())
            return []
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][0].append(index)
            return []
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self._loops[-1][1].append(index)
            return []
        return [index]

    def _if(self, stmt: ast.If, frontier: List[int]) -> List[int]:
        head = self.new_node(STATEMENT, stmt)
        self._link(frontier, head)
        if _can_raise_expr(stmt.test):
            self.nodes[head].raise_successors.append(self._raise_target())
        then_tails = self._body(stmt.body, [head])
        else_tails = self._body(stmt.orelse, [head]) if stmt.orelse else [head]
        return then_tails + else_tails

    def _loop(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        head = self.new_node(STATEMENT, stmt)
        self._link(frontier, head)
        test = stmt.test if isinstance(stmt, ast.While) else stmt.iter
        if _can_raise_expr(test):
            self.nodes[head].raise_successors.append(self._raise_target())
        breaks: List[int] = []
        continues: List[int] = []
        self._loops.append((breaks, continues))
        body_tails = self._body(stmt.body, [head])
        self._loops.pop()
        # Loop back edges; continues rejoin the head too.
        self._link(body_tails, head)
        self._link(continues, head)
        # Normal exhaustion runs orelse; breaks skip it.
        orelse_tails = (
            self._body(stmt.orelse, [head]) if stmt.orelse else [head]
        )
        return orelse_tails + breaks

    def _with(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        head = self.new_node(STATEMENT, stmt)
        self._link(frontier, head)
        self.nodes[head].raise_successors.append(self._raise_target())
        return self._body(stmt.body, [head])

    def _try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        # Model finally as a relay block: normal path runs it after
        # body/handlers; exceptional path runs it before propagating.
        finally_entry: Optional[int] = None
        finally_tails: List[int] = []
        outer_raise = self._raise_target()
        if stmt.finalbody:
            finally_entry = self.new_node(STATEMENT, stmt)
            finally_tails = self._body(stmt.finalbody, [finally_entry])

        handler_heads: List[int] = []
        # Exceptions inside the body go to the handlers if any exist,
        # otherwise through finally (if present) to the outer target.
        if stmt.handlers:
            # Reserve the handler entry point: a single dispatch node.
            dispatch = self.new_node(STATEMENT, stmt)
            self._handlers.append(dispatch)
            body_tails = self._body(stmt.body, frontier)
            self._handlers.pop()
            tails: List[int] = []
            for handler in stmt.handlers:
                head = self.new_node(STATEMENT, handler)
                self.nodes[dispatch].successors.append(head)
                # A handler body can itself raise: it propagates past
                # this try (through finally when present).
                if stmt.finalbody:
                    assert finally_entry is not None
                    self._handlers.append(finally_entry)
                else:
                    self._handlers.append(outer_raise)
                handler_tails = self._body(handler.body, [head])
                self._handlers.pop()
                tails.extend(handler_tails)
                handler_heads.append(head)
            # An exception no handler matches propagates onward — unless
            # some handler catches everything.  ``except Exception``
            # counts: the types it misses (KeyboardInterrupt,
            # SystemExit) end the process, where leaked OS resources
            # are reclaimed anyway.
            if not _catches_all(stmt.handlers):
                if stmt.finalbody:
                    assert finally_entry is not None
                    self.nodes[dispatch].successors.append(finally_entry)
                else:
                    self.nodes[dispatch].successors.append(outer_raise)
            body_tails = self._body(stmt.orelse, body_tails) if stmt.orelse else body_tails
            all_tails = body_tails + tails
        else:
            relay = finally_entry if finally_entry is not None else outer_raise
            self._handlers.append(relay)
            body_tails = self._body(stmt.body, frontier)
            self._handlers.pop()
            all_tails = body_tails

        if stmt.finalbody:
            assert finally_entry is not None
            self._link(all_tails, finally_entry)
            # The finally relay continues to the outer exceptional
            # target as well: it may be finishing a raise in flight.
            for tail in finally_tails:
                self.nodes[tail].raise_successors.append(outer_raise)
            return list(finally_tails)
        return all_tails


def _catches_all(handlers: Sequence[ast.ExceptHandler]) -> bool:
    """Whether some handler matches every (non-fatal) exception."""

    def broad(node: Optional[ast.expr]) -> bool:
        if node is None:
            return True
        if isinstance(node, ast.Name):
            return node.id in ("Exception", "BaseException")
        if isinstance(node, ast.Tuple):
            return any(broad(element) for element in node.elts)
        return False

    return any(broad(handler.type) for handler in handlers)


def _can_raise_expr(expr: Optional[ast.expr]) -> bool:
    if expr is None:
        return False
    return any(
        isinstance(node, (ast.Call, ast.Await)) for node in ast.walk(expr)
    )


def build_cfg(function: FunctionNode) -> Cfg:
    """The CFG of one function body (pure function of the AST)."""
    return _Builder().build(function)


# ---------------------------------------------------------------------
# The dataflow solver.
# ---------------------------------------------------------------------

Transfer = Callable[[CfgNode, FrozenSet], FrozenSet]


def solve_forward(
    cfg: Cfg,
    transfer: Transfer,
    *,
    mode: str = "may",
    init: FrozenSet = frozenset(),
    raise_transfer: Optional[Transfer] = None,
) -> Dict[int, FrozenSet]:
    """Forward dataflow to fixpoint; returns the IN state per node.

    ``mode="may"`` joins predecessors with union (a fact holds if it
    holds on *some* path), ``mode="must"`` with intersection (on *all*
    paths).  ``raise_transfer``, when given, produces the state carried
    along a node's *exceptional* edges instead of ``transfer``'s — the
    typestate rule passes ``in - kills`` there, so ``x = open(...)``
    raising does not count as having acquired ``x``, while a release
    statement that raises still counts as released.  The worklist is
    processed in ascending node order, so the result is deterministic
    for a given CFG.
    """
    if mode not in ("may", "must"):
        raise ValueError(f"unknown dataflow mode {mode!r}")
    #: successor → list of (predecessor, via_raise_edge).
    predecessors: Dict[int, List[Tuple[int, bool]]] = {
        n.index: [] for n in cfg.nodes
    }
    for node in cfg.nodes:
        for successor in node.successors:
            predecessors[successor].append((node.index, False))
        for successor in node.raise_successors:
            predecessors[successor].append((node.index, True))
    in_state: Dict[int, FrozenSet] = {cfg.entry: init}
    out_state: Dict[int, FrozenSet] = {}
    out_raise_state: Dict[int, FrozenSet] = {}
    pending = sorted(node.index for node in cfg.nodes)
    on_list = set(pending)
    while pending:
        index = pending.pop(0)
        on_list.discard(index)
        node = cfg.node(index)
        if index == cfg.entry:
            incoming = init
        else:
            states = []
            for pred, via_raise in predecessors[index]:
                table = out_raise_state if via_raise else out_state
                if pred in table:
                    states.append(table[pred])
            if not states:
                continue  # unreachable so far
            if mode == "may":
                incoming = frozenset().union(*states)
            else:
                incoming = states[0]
                for state in states[1:]:
                    incoming = incoming & state
        in_state[index] = incoming
        outgoing = transfer(node, incoming)
        raising = (
            raise_transfer(node, incoming)
            if raise_transfer is not None
            else outgoing
        )
        if (
            out_state.get(index) != outgoing
            or out_raise_state.get(index) != raising
        ):
            out_state[index] = outgoing
            out_raise_state[index] = raising
            for successor in node.all_successors():
                if successor not in on_list:
                    on_list.add(successor)
                    pending.append(successor)
            pending.sort()
    return in_state

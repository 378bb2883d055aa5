"""Interprocedural rules: blocking reachability, determinism taint,
and resource typestate.

PR 9's lexical rules judged one line at a time, so one helper function
was enough to hide each violation class this module closes:

``async-blocking-transitive``
    The blocking effect of ``time.sleep``/``flock``/``send_frame``/
    ``sendall``/subprocess propagates through the call graph
    (:mod:`repro.lint.callgraph`): any helper *reachable* from an
    ``async def`` through resolved call edges is caught, not just
    direct calls.  An async callee's effect travels only through
    ``await`` sites (calling an async function merely creates the
    coroutine), and findings report the frontier — the async function
    whose call site reaches a blocking *sync* chain — with the chain
    spelled out.

``det-taint``
    Values sourced from wall clocks, OS entropy, or ``os.environ``
    anywhere in the repo must not flow into the deterministic core
    (``lattice``/``causal``/``sync``/``kv``/``sim``/``wal``/``codec``
    and the sim transport seam).  Function *returns* are summarized to
    a fixpoint over the SCC condensation, so ``helper() →
    time.time()`` taints every caller of ``helper``; sinks are (a) a
    tainted argument at a call resolving into the core, (b) a core
    function calling a tainted-return helper, and (c) a tainted value
    stored onto an attribute of a core-typed object.  Local taint is
    flow-insensitive (a variable once tainted stays tainted), which
    over-approximates — the safe direction for this property.

``resource-typestate``
    CFG-path pairing of lifecycles: ``fence``/``unfence``, ``flock``
    acquire/release, ``open``/``close`` (files, sockets, trace sinks,
    tracers).  A finding means the function *does* release the
    resource on some path but a CFG path — usually an exception edge —
    escapes with it still held.  Functions that never release
    (ownership transfer: handles stored on ``self``, returned, or
    handed to a constructor) are deliberately out of scope, as are
    ``with``-managed and loop-carried acquires.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import Finding, Module, Project, Rule
from repro.lint.callgraph import (
    CallGraph,
    CallSite,
    FunctionDecl,
    _direct_statements,
    project_analysis,
    propagate_effect,
)
from repro.lint.flow import CfgNode, build_cfg, solve_forward
from repro.lint.astutil import FunctionNode, import_aliases, qualified_name
from repro.lint.rules.determinism import IMPURE_CALLS, in_deterministic_core
from repro.lint.rules.hygiene import BLOCKING_CALLS, BLOCKING_CALLEE_NAMES


def _modules_by_path(project: Project) -> Dict[str, Module]:
    return {module.path: module for module in project.modules}


def _node_finding(
    rule: Rule, path: str, node: ast.AST, message: str
) -> Finding:
    return Finding(
        rule=rule.id,
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
        severity=rule.severity,
    )


# ---------------------------------------------------------------------
# async-blocking-transitive
# ---------------------------------------------------------------------


def _blocking_label(site: CallSite) -> Optional[str]:
    """The leaf label if this call site blocks directly, else None."""
    if site.external in BLOCKING_CALLS:
        return site.external
    if site.callee_name in BLOCKING_CALLEE_NAMES:
        return site.callee_name
    return None


def _blocking_edge_admits(
    caller: FunctionDecl,
    site: CallSite,
    target: Optional[FunctionDecl],
) -> bool:
    # Calling an async function without awaiting it only builds the
    # coroutine — its body (and its blocking call) does not run here.
    if target is not None and target.is_async:
        return site.awaited
    return True


class TransitiveBlockingRule(Rule):
    id = "async-blocking-transitive"
    summary = (
        "no blocking calls (time.sleep, flock, send_frame/recv_frame, "
        "sendall, subprocess) inside async def, directly or through "
        "any reachable helper"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        graph = project_analysis(project)
        modules = _modules_by_path(project)
        # Seeds: functions whose own body blocks; remember the leaf.
        seeds: Dict[str, str] = {}
        for fn_id in sorted(graph.calls):
            for site in graph.calls[fn_id]:
                label = _blocking_label(site)
                if label is not None:
                    seeds[fn_id] = label
                    break
        effected, witness = propagate_effect(
            graph, set(seeds), edge_admits=_blocking_edge_admits
        )
        for fn_id in sorted(graph.functions):
            fn = graph.functions[fn_id]
            if not fn.is_async or fn.module_path not in modules:
                continue
            for site in graph.calls.get(fn_id, ()):
                direct = _blocking_label(site)
                if direct is not None:
                    yield _node_finding(
                        self,
                        fn.module_path,
                        site.node,
                        f"blocking call {direct}() inside async def "
                        f"{fn.name}: it stalls the event loop and every "
                        "peer connection with it; use the asyncio "
                        "equivalent or move it off-loop",
                    )
                    continue
                # Frontier reporting: a resolved *sync* callee that
                # blocks (transitively).  Blocking async callees are
                # reported at their own frontier sites instead.
                for target in site.targets:
                    callee = graph.functions[target]
                    if callee.is_async or target not in effected:
                        continue
                    chain = self._chain(graph, target, seeds, witness)
                    yield _node_finding(
                        self,
                        fn.module_path,
                        site.node,
                        f"async def {fn.name} reaches a blocking call "
                        f"through {chain}: the event loop stalls for "
                        "the whole chain; use the asyncio equivalent "
                        "or move the blocking step off-loop",
                    )
                    break

    @staticmethod
    def _chain(
        graph: CallGraph,
        start: str,
        seeds: Dict[str, str],
        witness: Dict[str, Tuple[CallSite, str]],
    ) -> str:
        parts = [graph.functions[start].name + "()"]
        current = start
        for _ in range(32):  # bounded: witness chains are acyclic
            if current in seeds:
                parts.append(seeds[current] + "()")
                break
            step = witness.get(current)
            if step is None:
                break
            _, current = step
            parts.append(graph.functions[current].name + "()")
        return " -> ".join(parts)


# ---------------------------------------------------------------------
# det-taint
# ---------------------------------------------------------------------

#: Builtins that pass a tainted operand through unchanged in substance
#: — the usual laundering wrappers around a clock read.
_TRANSPARENT_CALLS = frozenset(
    ("int", "float", "str", "bytes", "round", "abs", "min", "max", "divmod")
)

#: Expression nodes whose taint is the union of their children's.
_TAINT_THROUGH = (
    ast.BinOp,
    ast.UnaryOp,
    ast.IfExp,
    ast.Tuple,
    ast.List,
    ast.Set,
    ast.Dict,
    ast.Subscript,
    ast.Starred,
    ast.Await,
    ast.FormattedValue,
    ast.JoinedStr,
)


class _FunctionTaint:
    """Flow-insensitive local taint for one function."""

    def __init__(self, graph: CallGraph, fn: FunctionDecl) -> None:
        self.graph = graph
        self.fn = fn
        self.resolver = graph.resolver_for(fn.id)
        self.aliases = self.resolver.summary.aliases
        self.sites = {
            id(site.node): site for site in graph.calls.get(fn.id, ())
        }
        self.tainted_vars: Dict[str, str] = {}

    def expr_taint(
        self, expr: ast.expr, tainted_returns: Dict[str, str]
    ) -> Optional[str]:
        """The source label if ``expr`` may carry impure data."""
        if isinstance(expr, ast.Call):
            site = self.sites.get(id(expr))
            if site is not None:
                if site.external in IMPURE_CALLS:
                    return site.external
                for target in site.targets:
                    if target in tainted_returns:
                        return tainted_returns[target]
            callee = expr.func
            if (
                isinstance(callee, ast.Name)
                and callee.id in _TRANSPARENT_CALLS
            ):
                for arg in list(expr.args) + [k.value for k in expr.keywords]:
                    reason = self.expr_taint(arg, tainted_returns)
                    if reason is not None:
                        return reason
            if isinstance(callee, ast.Attribute):
                # A method call on a tainted object yields tainted
                # data (os.environ.get, tainted_dt.timestamp(), ...).
                return self.expr_taint(callee.value, tainted_returns)
            return None
        if isinstance(expr, ast.Attribute):
            if qualified_name(expr, self.aliases) == "os.environ":
                return "os.environ"
            receiver = self.resolver.type_of(expr.value)
            if receiver is not None and self.graph.linker is not None:
                for target in self.graph.linker.property_targets(
                    receiver, expr.attr
                ):
                    if target in tainted_returns:
                        return tainted_returns[target]
            return self.expr_taint(expr.value, tainted_returns)
        if isinstance(expr, ast.Name):
            return self.tainted_vars.get(expr.id)
        if isinstance(expr, ast.NamedExpr):
            return self.expr_taint(expr.value, tainted_returns)
        if isinstance(expr, _TAINT_THROUGH):
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    reason = self.expr_taint(child, tainted_returns)
                    if reason is not None:
                        return reason
        return None

    def solve_locals(self, tainted_returns: Dict[str, str]) -> None:
        """Fixpoint the tainted-variable set (flow-insensitive)."""
        changed = True
        while changed:
            changed = False
            for node in _direct_statements(self.fn.node):
                targets: List[str] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    value = node.value
                    targets = [
                        t.id
                        for t in node.targets
                        if isinstance(t, ast.Name)
                    ]
                elif isinstance(node, ast.AnnAssign) and node.value:
                    value = node.value
                    if isinstance(node.target, ast.Name):
                        targets = [node.target.id]
                elif isinstance(node, ast.AugAssign):
                    value = node.value
                    if isinstance(node.target, ast.Name):
                        targets = [node.target.id]
                elif isinstance(node, ast.NamedExpr):
                    value = node.value
                    if isinstance(node.target, ast.Name):
                        targets = [node.target.id]
                if value is None or not targets:
                    continue
                reason = self.expr_taint(value, tainted_returns)
                if reason is None:
                    continue
                for name in targets:
                    if name not in self.tainted_vars:
                        self.tainted_vars[name] = reason
                        changed = True

    def return_taint(
        self, tainted_returns: Dict[str, str]
    ) -> Optional[str]:
        for node in _direct_statements(self.fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                reason = self.expr_taint(node.value, tainted_returns)
                if reason is not None:
                    return reason
        return None


class DetTaintRule(Rule):
    id = "det-taint"
    summary = (
        "wall-clock / OS-entropy / os.environ values must not flow "
        "(via returns, arguments, or attribute stores) into the "
        "deterministic core"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        graph = project_analysis(project)
        modules = _modules_by_path(project)
        analyzers = {
            fn_id: _FunctionTaint(graph, graph.functions[fn_id])
            for fn_id in graph.calls
        }
        #: fn id → label of the impure source its return derives from.
        tainted_returns: Dict[str, str] = {}
        changed = True
        while changed:
            changed = False
            # SCCs arrive callees-first, so taint flows caller-ward in
            # one sweep; the outer loop closes mutual recursion.
            for scc in graph.sccs:
                for fn_id in scc:
                    analyzer = analyzers[fn_id]
                    analyzer.solve_locals(tainted_returns)
                    if fn_id in tainted_returns:
                        continue
                    reason = analyzer.return_taint(tainted_returns)
                    if reason is not None:
                        tainted_returns[fn_id] = reason
                        changed = True
        for fn_id in sorted(graph.calls):
            fn = graph.functions[fn_id]
            if fn.module_path not in modules:
                continue
            analyzer = analyzers[fn_id]
            caller_in_core = in_deterministic_core(fn.module_path)
            for site in graph.calls[fn_id]:
                core_targets = [
                    t
                    for t in site.targets
                    if in_deterministic_core(
                        graph.functions[t].module_path
                    )
                ]
                if core_targets and not caller_in_core:
                    # Sink (a): tainted argument crossing into core.
                    reason = None
                    for arg in list(site.node.args) + [
                        k.value for k in site.node.keywords
                    ]:
                        reason = analyzer.expr_taint(arg, tainted_returns)
                        if reason is not None:
                            break
                    if reason is not None:
                        callee = graph.functions[core_targets[0]]
                        yield _node_finding(
                            self,
                            fn.module_path,
                            site.node,
                            f"value derived from {reason} passed into "
                            f"deterministic-core function "
                            f"{callee.qualname}(): core state must be "
                            "a pure function of seeds — thread the "
                            "value through config or a clock seam",
                        )
                if caller_in_core:
                    # Sink (b): core pulls taint through a helper.
                    for target in site.targets:
                        if target in tainted_returns and not (
                            in_deterministic_core(
                                graph.functions[target].module_path
                            )
                        ):
                            yield _node_finding(
                                self,
                                fn.module_path,
                                site.node,
                                f"deterministic-core function {fn.qualname} "
                                f"calls {graph.functions[target].qualname}() "
                                f"whose return derives from "
                                f"{tainted_returns[target]}; inject the "
                                "value through config or a clock seam",
                            )
                            break
            if not caller_in_core:
                # Sink (c): tainted value stored on a core-typed object.
                yield from self._attribute_store_sinks(
                    graph, fn, analyzer, tainted_returns
                )

    def _attribute_store_sinks(
        self,
        graph: CallGraph,
        fn: FunctionDecl,
        analyzer: _FunctionTaint,
        tainted_returns: Dict[str, str],
    ) -> Iterator[Finding]:
        for node in _direct_statements(fn.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not isinstance(target, ast.Attribute):
                    continue
                receiver = analyzer.resolver.type_of(target.value)
                if receiver is None:
                    continue
                decl = graph.classes.get(receiver)
                if decl is None:
                    continue
                class_path = decl.module_dotted.replace(".", "/") + ".py"
                if not in_deterministic_core(class_path):
                    continue
                reason = analyzer.expr_taint(node.value, tainted_returns)
                if reason is not None:
                    yield _node_finding(
                        self,
                        fn.module_path,
                        node,
                        f"value derived from {reason} stored on "
                        f".{target.attr} of deterministic-core type "
                        f"{decl.name}: core state must be a pure "
                        "function of seeds",
                    )


# ---------------------------------------------------------------------
# resource-typestate
# ---------------------------------------------------------------------

#: Qualified callables whose result is an owned, closeable resource.
_OPEN_CALLS = frozenset(
    ("open", "socket.socket", "socket.create_connection")
)

#: Project classes whose *construction* opens a resource the holder
#: must close (trace sinks hold file handles; tracers own their sink).
_RESOURCE_CLASSES = frozenset(("FileTraceSink", "Tracer"))

#: Method/attr names that transfer ownership of an argument.
_OWNERSHIP_SINK_ATTRS = frozenset(
    ("append", "add", "put", "register", "push", "extend", "closing")
)

_LOCK_ACQUIRE_FLAGS = frozenset(("LOCK_EX", "LOCK_SH"))
_LOCK_RELEASE_FLAG = "LOCK_UN"


def _names_in(node: ast.AST, tracked: FrozenSet[str]) -> Set[str]:
    return {
        sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and sub.id in tracked
    }


def _flag_names(flags_expr: ast.expr) -> Set[str]:
    """LOCK_* identifiers in a flags expression, however imported."""
    names: Set[str] = set()
    for sub in ast.walk(flags_expr):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Name):
            names.add(sub.id)
    return names


class _ProtocolScan:
    """Gen/kill extraction for one function's resource protocols."""

    def __init__(self, aliases: Dict[str, str], fn: FunctionNode) -> None:
        self.aliases = aliases
        self.fn = fn
        #: statements inside loop bodies (their acquires are exempt:
        #: the per-iteration lifecycle is out of scope for a
        #: path-insensitive key set).
        self.loop_stmts: Set[int] = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.While, ast.For, ast.AsyncFor)):
                for stmt in node.body + node.orelse:
                    for sub in ast.walk(stmt):
                        self.loop_stmts.add(id(sub))
        #: key → list of acquire AST nodes (for finding locations).
        self.acquire_sites: Dict[str, List[ast.AST]] = {}
        #: keys with at least one *real* release (close/unfence/UN).
        self.released: Set[str] = set()
        self.value_names: Set[str] = set()

    # -- per-statement shallow parts ----------------------------------

    def shallow_parts(self, stmt: ast.stmt) -> List[ast.AST]:
        if isinstance(stmt, (ast.If, ast.While)):
            return [stmt.test]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in stmt.items]
        if isinstance(stmt, (ast.Try, ast.ExceptHandler)):
            return []
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return []
        return [stmt]

    # -- acquire / release classification -----------------------------

    def _call_acquire_key(self, call: ast.Call) -> Optional[str]:
        """State-resource acquires: fence / flock LOCK_EX."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "fence":
            return "fence:" + self._pair_key(call)
        name = qualified_name(func, self.aliases)
        if name in ("fcntl.flock", "fcntl.lockf") and len(call.args) > 1:
            if _flag_names(call.args[1]) & _LOCK_ACQUIRE_FLAGS:
                return "flock:" + ast.unparse(call.args[0])
        return None

    def _call_release_key(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "unfence":
            return "fence:" + self._pair_key(call)
        name = qualified_name(func, self.aliases)
        if name in ("fcntl.flock", "fcntl.lockf") and len(call.args) > 1:
            if _LOCK_RELEASE_FLAG in _flag_names(call.args[1]):
                return "flock:" + ast.unparse(call.args[0])
        return None

    @staticmethod
    def _pair_key(call: ast.Call) -> str:
        receiver = (
            ast.unparse(call.func.value)
            if isinstance(call.func, ast.Attribute)
            else ""
        )
        args = ",".join(ast.unparse(arg) for arg in call.args)
        return f"{receiver}({args})"

    def _value_acquire(self, stmt: ast.AST) -> Optional[Tuple[str, ast.AST]]:
        """``name = open(...)`` style acquisitions (single Name target)."""
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            return None
        func = stmt.value.func
        name = qualified_name(func, self.aliases)
        tail = name.split(".")[-1] if name else None
        opens = (
            name in _OPEN_CALLS
            or tail in _RESOURCE_CLASSES
            or (isinstance(func, ast.Attribute) and func.attr == "open")
        )
        if not opens:
            return None
        return stmt.targets[0].id, stmt

    # -- the gen/kill tables ------------------------------------------

    def scan(self) -> None:
        """First pass: collect keys, acquire sites, and real releases."""
        for node in _direct_statements(self.fn):
            if not isinstance(node, (ast.stmt,)):
                continue
            for part in self.shallow_parts(node):
                acquired = self._value_acquire(part)
                if acquired is not None and id(node) not in self.loop_stmts:
                    name, site = acquired
                    if not isinstance(
                        node, (ast.With, ast.AsyncWith)
                    ):
                        self.value_names.add(name)
                        self.acquire_sites.setdefault(
                            "value:" + name, []
                        ).append(site)
                for call in ast.walk(part):
                    if not isinstance(call, ast.Call):
                        continue
                    key = self._call_acquire_key(call)
                    if key is not None and id(node) not in self.loop_stmts:
                        if not isinstance(node, (ast.With, ast.AsyncWith)):
                            self.acquire_sites.setdefault(key, []).append(
                                call
                            )
                    rkey = self._call_release_key(call)
                    if rkey is not None:
                        self.released.add(rkey)
                    if (
                        isinstance(call.func, ast.Attribute)
                        and call.func.attr == "close"
                        and isinstance(call.func.value, ast.Name)
                    ):
                        self.released.add("value:" + call.func.value.id)

    def gen_kill(
        self, node: CfgNode, tracked: FrozenSet[str]
    ) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """The (gen, kill) key sets of one CFG node.

        Kills include real releases *and* escapes (return/yield, store
        to attribute or subscript, hand-off to a constructor or a
        collection) — after an ownership transfer the function is no
        longer responsible for the close.
        """
        if node.stmt is None:
            return frozenset(), frozenset()
        stmt = node.stmt
        gens: Set[str] = set()
        kills: Set[str] = set()
        tracked_names = frozenset(
            key.split(":", 1)[1]
            for key in tracked
            if key.startswith("value:")
        )
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            # A nested scope capturing the handle may close it later:
            # ownership escaped into the closure.
            for name in _names_in(stmt, tracked_names):
                kills.add("value:" + name)
            return frozenset(), frozenset(kills)
        for part in self.shallow_parts(stmt):
            acquired = self._value_acquire(part)
            if (
                acquired is not None
                and id(stmt) not in self.loop_stmts
                and not isinstance(stmt, (ast.With, ast.AsyncWith))
            ):
                key = "value:" + acquired[0]
                if key in tracked:
                    gens.add(key)
            for call in ast.walk(part):
                if not isinstance(call, ast.Call):
                    continue
                key = self._call_acquire_key(call)
                if (
                    key is not None
                    and key in tracked
                    and id(stmt) not in self.loop_stmts
                    and not isinstance(stmt, (ast.With, ast.AsyncWith))
                ):
                    gens.add(key)
                rkey = self._call_release_key(call)
                if rkey is not None:
                    kills.add(rkey)
                if (
                    isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.attr == "close"
                ):
                    kills.add("value:" + call.func.value.id)
            kills.update(
                "value:" + name
                for name in self._escapes(part, tracked_names)
            )
        return frozenset(gens), frozenset(kills)

    def _escapes(
        self, part: ast.AST, tracked_names: FrozenSet[str]
    ) -> Set[str]:
        escaped: Set[str] = set()
        if not tracked_names:
            return escaped
        for sub in ast.walk(part):
            if isinstance(sub, ast.Return) and sub.value is not None:
                escaped |= _names_in(sub.value, tracked_names)
            elif isinstance(sub, (ast.Yield, ast.YieldFrom)):
                if sub.value is not None:
                    escaped |= _names_in(sub.value, tracked_names)
            elif isinstance(sub, ast.Assign):
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in sub.targets
                ):
                    escaped |= _names_in(sub.value, tracked_names)
            elif isinstance(sub, ast.Call):
                func = sub.func
                constructorish = (
                    isinstance(func, ast.Name) and func.id[:1].isupper()
                ) or (
                    isinstance(func, ast.Attribute)
                    and (
                        func.attr in _OWNERSHIP_SINK_ATTRS
                        or func.attr[:1].isupper()
                    )
                )
                if constructorish:
                    for arg in list(sub.args) + [
                        k.value for k in sub.keywords
                    ]:
                        escaped |= _names_in(arg, tracked_names)
        return escaped


class ResourceTypestateRule(Rule):
    id = "resource-typestate"
    summary = (
        "fence/unfence, flock acquire/release, and open/close "
        "lifecycles must pair on every CFG path, including exception "
        "paths"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            aliases = import_aliases(module.tree)
            for node in ast.walk(module.tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    yield from self._check_function(module, aliases, node)

    def _check_function(
        self,
        module: Module,
        aliases: Dict[str, str],
        fn: FunctionNode,
    ) -> Iterator[Finding]:
        scan = _ProtocolScan(aliases, fn)
        scan.scan()
        # Precondition: the function both acquires AND really releases
        # the key — release-only helpers (``release_lock``) and
        # ownership transfers (acquire, stash on self) are exempt.
        tracked = frozenset(
            key
            for key, sites in scan.acquire_sites.items()
            if sites and key in scan.released
        )
        if not tracked:
            return
        cfg = build_cfg(fn)
        tables = {
            n.index: scan.gen_kill(n, tracked) for n in cfg.nodes
        }

        def transfer(node: CfgNode, state: FrozenSet) -> FrozenSet:
            gens, kills = tables[node.index]
            return (state - kills) | gens

        def raise_transfer(node: CfgNode, state: FrozenSet) -> FrozenSet:
            # If the statement raises, its releases still count (a
            # failing close() released what it could) but its acquire
            # never happened (``x = open(...)`` raising binds nothing).
            _, kills = tables[node.index]
            return state - kills

        in_state = solve_forward(
            cfg, transfer, mode="may", raise_transfer=raise_transfer
        )
        leaks: Dict[str, List[str]] = {}
        for exit_index, label in (
            (cfg.error_exit, "an exception path"),
            (cfg.normal_exit, "a normal exit path"),
        ):
            for key in in_state.get(exit_index, frozenset()):
                leaks.setdefault(key, []).append(label)
        for key in sorted(leaks):
            paths = " and ".join(leaks[key])
            for site in scan.acquire_sites.get(key, []):
                kind, _, detail = key.partition(":")
                if kind == "value":
                    what = (
                        f"resource {detail!r} acquired here may never "
                        f"be closed on {paths}"
                    )
                elif kind == "fence":
                    what = (
                        f"fence acquired here ({detail}) may have no "
                        f"matching unfence() on {paths}"
                    )
                else:
                    what = (
                        f"flock acquired here ({detail}) may have no "
                        f"LOCK_UN on {paths}"
                    )
                yield _node_finding(
                    self,
                    module.path,
                    site,
                    what
                    + "; release in a finally/with block so exception "
                    "paths cannot strand it",
                )

"""``resource-typestate``: acquire/release pairing on every CFG path.

CFG-path pairing of lifecycles: ``fence``/``unfence``, ``flock``
acquire/release, ``open``/``close`` (files, sockets, trace sinks,
tracers).  A finding means the function *does* release the resource
on some path but a CFG path — usually an exception edge — escapes with
it still held.  Functions that never release (ownership transfer:
handles stored on ``self``, returned, or handed to a constructor) are
deliberately out of scope, as are ``with``-managed and loop-carried
acquires.  The analysis is intraprocedural: one CFG per function
(:mod:`repro.lint.flow`), no call graph.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.astutil import (
    FunctionNode,
    direct_statements,
    import_aliases,
    qualified_name,
)
from repro.lint.engine import Finding, Module, Project, Rule
from repro.lint.flow import CfgNode, build_cfg, solve_forward

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
        for node in direct_statements(self.fn):
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
                yield self.finding(
                    module,
                    site,
                    what
                    + "; release in a finally/with block so exception "
                    "paths cannot strand it",
                )

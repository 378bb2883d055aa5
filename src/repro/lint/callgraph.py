"""A conservative project call graph for the interprocedural rules.

PR 9's rules judged every site lexically, so one helper function was
enough to hide a violation: a blocking ``flock`` wrapped in a utility
and called from ``async def`` passed ``async-blocking``, and a
``time.time()`` laundered through a return value reached the lattice
core unseen.  This module gives the rules the missing whole-program
view: every function and method defined in the linted tree becomes a
node, every call site is resolved to the set of project functions it
*may* reach, and effects propagate over the SCC condensation so cycles
and mutual recursion converge.

Resolution is deliberately static and deliberately honest about what
it gives up:

* **names** resolve through local scopes and the import-alias map
  (``from repro.net import framing; framing.send_frame(...)``);
* **self/cls method calls** resolve through the project MRO *plus all
  project subclass overrides* — dynamic dispatch is modelled as
  may-call over the subtree;
* **typed receivers** — ``self.storage.release_lock()`` — resolve when
  the attribute's class is inferrable from constructor assignments
  (``self.storage = FileStorage(...)``), ``self.x: T`` annotations, or
  parameter annotations;
* everything else — ``getattr`` dispatch, callbacks, rebound names,
  untyped receivers — is recorded as an **unknown (⊤) call site**.
  Effect rules do not propagate through ⊤ (they would otherwise flag
  the world), which is the documented unsoundness of the analysis.

Module summaries are pure functions of a file's source, cached by
content hash (:data:`_SUMMARY_CACHE`), so repeated passes — the test
suite, a watch loop, the three rules sharing one pass — pay the
linking cost only.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.astutil import import_aliases, qualified_name
from repro.lint.engine import Module, Project

FunctionNode = ast.AST  # FunctionDef | AsyncFunctionDef

#: Decorator names that make a method an attribute read, not a call.
_PROPERTY_DECORATORS = frozenset(("property", "cached_property"))


def module_dotted(path: str) -> str:
    """A dotted module name derived from the file path.

    ``src/repro/kv/store.py`` → ``repro.kv.store`` (the part after the
    last ``src`` segment when one exists; the full path otherwise, so
    corpus fixtures like ``pkg/mod.py`` become ``pkg.mod``).  Package
    ``__init__`` files name the package itself.  Imports are resolved
    by *suffix match* against these names, so leading path junk never
    matters.
    """
    normalized = path.replace("\\", "/").lstrip("/")
    if normalized.endswith(".py"):
        normalized = normalized[: -len(".py")]
    parts = [part for part in normalized.split("/") if part and part != "."]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src") :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "module"


@dataclass
class FunctionDecl:
    """One function or method defined in the linted tree."""

    id: str  #: ``module.dotted.Class.method`` — globally unique.
    module_path: str
    module_dotted: str
    name: str
    qualname: str
    lineno: int
    col: int
    is_async: bool
    is_property: bool
    class_name: Optional[str]
    node: FunctionNode


@dataclass
class ClassDecl:
    """One class: bases, methods, and inferred attribute types."""

    id: str
    module_dotted: str
    name: str
    #: Base-class names as alias-resolved dotted text (unlinked).
    bases: Tuple[str, ...]
    methods: Dict[str, str] = field(default_factory=dict)
    properties: Set[str] = field(default_factory=set)
    #: attribute name → alias-resolved dotted type text (unlinked).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything the linker needs from one module, AST-derived once."""

    path: str
    dotted: str
    aliases: Dict[str, str]
    functions: Dict[str, FunctionDecl] = field(default_factory=dict)
    classes: Dict[str, ClassDecl] = field(default_factory=dict)
    #: top-level name → function id (module-scope defs only).
    toplevel: Dict[str, str] = field(default_factory=dict)


@dataclass
class CallSite:
    """One call expression inside one function."""

    node: ast.Call
    #: Project functions this call may reach (empty when unresolved).
    targets: Tuple[str, ...]
    #: Qualified name when the callee is outside the project
    #: (``time.sleep``); None for project or unknown callees.
    external: Optional[str]
    #: The bare callee name (attribute or identifier) — always set,
    #: used for lexical matching (``sendall``) and ⊤ diagnostics.
    callee_name: Optional[str]
    #: True when the call is wrapped in ``await``: async callees only
    #: propagate effects through awaited sites.
    awaited: bool
    #: True when neither a project target nor an external name could
    #: be determined — the ⊤ fallback.
    unknown: bool


@dataclass
class CallGraph:
    """The linked graph plus the per-function call sites."""

    functions: Dict[str, FunctionDecl]
    classes: Dict[str, ClassDecl]
    calls: Dict[str, Tuple[CallSite, ...]]
    callers: Dict[str, Set[str]]
    #: Condensation: SCCs in reverse topological order (callees first).
    sccs: List[Tuple[str, ...]]
    #: module path → summary, and the linker — retained so rules can
    #: build per-function resolvers (the taint rule types receivers).
    summaries: Dict[str, "ModuleSummary"] = field(default_factory=dict)
    linker: Optional["_Linker"] = None

    def call_sites(self) -> Iterator[Tuple[FunctionDecl, CallSite]]:
        for fn_id in sorted(self.calls):
            fn = self.functions[fn_id]
            for site in self.calls[fn_id]:
                yield fn, site

    def resolver_for(self, fn_id: str) -> "_FunctionResolver":
        """The resolution context of one function (lazily cached)."""
        cache = getattr(self, "_resolver_cache", None)
        if cache is None:
            cache = {}
            self._resolver_cache = cache
        if fn_id not in cache:
            fn = self.functions[fn_id]
            assert self.linker is not None
            cache[fn_id] = _FunctionResolver(
                self.linker, self.summaries[fn.module_path], fn
            )
        return cache[fn_id]


# ---------------------------------------------------------------------
# Per-module summaries (content-hash cached).
# ---------------------------------------------------------------------

#: content fingerprint → ModuleSummary.  Bounded: lint passes see at
#: most a few hundred modules; entries are evicted FIFO past the cap.
_SUMMARY_CACHE: Dict[str, ModuleSummary] = {}
_SUMMARY_CACHE_CAP = 2048


def _decorator_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _decorator_name(node.func)
    return None


def _dotted_text(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Alias-resolved dotted text of a Name/Attribute chain."""
    return qualified_name(node, aliases)


def summarize_module(module: Module) -> ModuleSummary:
    """Build (or fetch) the summary for one parsed module."""
    key = hashlib.sha256(
        (module.path + "\0" + module.source).encode("utf-8")
    ).hexdigest()
    cached = _SUMMARY_CACHE.get(key)
    if cached is not None:
        return cached
    dotted = module_dotted(module.path)
    aliases = import_aliases(module.tree)
    summary = ModuleSummary(path=module.path, dotted=dotted, aliases=aliases)
    _collect_scope(summary, module.tree.body, scope=(), class_decl=None)
    for decl in summary.classes.values():
        _collect_attr_types(summary, decl)
    if len(_SUMMARY_CACHE) >= _SUMMARY_CACHE_CAP:
        _SUMMARY_CACHE.pop(next(iter(_SUMMARY_CACHE)))
    _SUMMARY_CACHE[key] = summary
    return summary


def _collect_scope(
    summary: ModuleSummary,
    body: Sequence[ast.stmt],
    scope: Tuple[str, ...],
    class_decl: Optional[ClassDecl],
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = ".".join(scope + (stmt.name,))
            fn_id = f"{summary.dotted}.{qualname}"
            decorators = {
                _decorator_name(d) for d in stmt.decorator_list
            }
            is_property = bool(decorators & _PROPERTY_DECORATORS)
            decl = FunctionDecl(
                id=fn_id,
                module_path=summary.path,
                module_dotted=summary.dotted,
                name=stmt.name,
                qualname=qualname,
                lineno=stmt.lineno,
                col=stmt.col_offset,
                is_async=isinstance(stmt, ast.AsyncFunctionDef),
                is_property=is_property,
                class_name=class_decl.name if class_decl is not None else None,
                node=stmt,
            )
            summary.functions[fn_id] = decl
            if class_decl is not None:
                # First definition wins (a conditional redefinition is
                # out of static scope); properties are attribute reads.
                class_decl.methods.setdefault(stmt.name, fn_id)
                if is_property:
                    class_decl.properties.add(stmt.name)
            elif not scope:
                summary.toplevel[stmt.name] = fn_id
            _collect_scope(
                summary, stmt.body, scope + (stmt.name,), class_decl=None
            )
        elif isinstance(stmt, ast.ClassDef):
            if class_decl is not None or scope:
                continue  # nested classes: out of scope, ⊤ at call sites
            bases = tuple(
                text
                for base in stmt.bases
                if (text := _dotted_text(base, summary.aliases)) is not None
            )
            decl = ClassDecl(
                id=f"{summary.dotted}.{stmt.name}",
                module_dotted=summary.dotted,
                name=stmt.name,
                bases=bases,
            )
            summary.classes[stmt.name] = decl
            _collect_scope(
                summary, stmt.body, scope + (stmt.name,), class_decl=decl
            )
            # Class-level annotations type the instance attributes.
            for inner in stmt.body:
                if isinstance(inner, ast.AnnAssign) and isinstance(
                    inner.target, ast.Name
                ):
                    text = _annotation_text(inner.annotation, summary.aliases)
                    if text is not None:
                        decl.attr_types.setdefault(inner.target.id, text)


def _annotation_text(
    annotation: Optional[ast.expr], aliases: Dict[str, str]
) -> Optional[str]:
    """The class-naming part of an annotation (Optional[T] → T)."""
    if annotation is None:
        return None
    node = annotation
    # Unwrap Optional[T] / "T" string annotations one level.
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        base = _dotted_text(node.value, aliases)
        if base is not None and base.split(".")[-1] == "Optional":
            return _annotation_text(node.slice, aliases)
        return None
    return _dotted_text(node, aliases)


def _collect_attr_types(summary: ModuleSummary, decl: ClassDecl) -> None:
    """Infer ``self.x`` attribute types from every method body."""
    for method_id in decl.methods.values():
        method = summary.functions[method_id]
        for node in ast.walk(method.node):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                ctor = _dotted_text(node.value.func, summary.aliases)
                if ctor is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        decl.attr_types.setdefault(target.attr, ctor)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Attribute
            ):
                target = node.target
                if (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    text = _annotation_text(node.annotation, summary.aliases)
                    if text is not None:
                        decl.attr_types.setdefault(target.attr, text)


# ---------------------------------------------------------------------
# Linking: symbols, hierarchy, call-site resolution.
# ---------------------------------------------------------------------


class _Linker:
    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.summaries = list(summaries)
        #: last dotted segment → candidate modules (suffix matching).
        self._by_tail: Dict[str, List[ModuleSummary]] = {}
        for summary in self.summaries:
            tail = summary.dotted.split(".")[-1]
            self._by_tail.setdefault(tail, []).append(summary)
        self.functions: Dict[str, FunctionDecl] = {}
        self.classes: Dict[str, ClassDecl] = {}
        self._class_by_name: Dict[str, List[ClassDecl]] = {}
        for summary in self.summaries:
            self.functions.update(summary.functions)
            for decl in summary.classes.values():
                self.classes[decl.id] = decl
                self._class_by_name.setdefault(decl.name, []).append(decl)
        self._parents: Dict[str, Tuple[str, ...]] = {}
        self._subclasses: Dict[str, Set[str]] = {}
        self._link_hierarchy()
        self._method_cache: Dict[Tuple[str, str], Tuple[str, ...]] = {}

    # -- symbols -------------------------------------------------------

    def _modules_matching(self, parts: Sequence[str]) -> List[ModuleSummary]:
        """Modules whose dotted name ends with ``parts``."""
        if not parts:
            return []
        matched = []
        for summary in self._by_tail.get(parts[-1], []):
            mod_parts = summary.dotted.split(".")
            if tuple(mod_parts[-len(parts) :]) == tuple(parts):
                matched.append(summary)
        return matched

    def resolve_dotted(
        self, dotted: str, _depth: int = 0
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Project (functions, classes) a dotted name may denote.

        Tries every module/member split, longest module first, with
        suffix matching on the module part — so both absolute imports
        and the relative-import shorthand resolve.  A member that is
        itself *imported* into the matched module (a package
        ``__init__`` re-export like ``repro.wal.FileStorage``) is
        chased one alias hop at a time, depth-bounded against cycles.
        """
        parts = dotted.split(".")
        functions: List[str] = []
        classes: List[str] = []
        for split in range(len(parts) - 1, 0, -1):
            for summary in self._modules_matching(parts[:split]):
                rest = parts[split:]
                if len(rest) == 1:
                    if rest[0] in summary.toplevel:
                        functions.append(summary.toplevel[rest[0]])
                    if rest[0] in summary.classes:
                        classes.append(summary.classes[rest[0]].id)
                elif len(rest) == 2 and rest[0] in summary.classes:
                    decl = summary.classes[rest[0]]
                    if rest[1] in decl.methods:
                        functions.append(decl.methods[rest[1]])
                if (
                    not functions
                    and not classes
                    and rest[0] in summary.aliases
                    and _depth < 4
                ):
                    chased = ".".join(
                        [summary.aliases[rest[0]]] + rest[1:]
                    )
                    if chased != dotted:
                        found_fns, found_classes = self.resolve_dotted(
                            chased, _depth + 1
                        )
                        functions.extend(found_fns)
                        classes.extend(found_classes)
            if functions or classes:
                break
        return tuple(sorted(set(functions))), tuple(sorted(set(classes)))

    def _resolve_class_text(
        self, text: str, summary: ModuleSummary
    ) -> Optional[str]:
        """A dotted type text → a class id, or None."""
        if "." not in text:
            local = summary.classes.get(text)
            if local is not None:
                return local.id
            # An un-aliased bare name: unique across the project only.
            candidates = self._class_by_name.get(text, [])
            if len(candidates) == 1:
                return candidates[0].id
            return None
        _, classes = self.resolve_dotted(text)
        return classes[0] if len(classes) == 1 else None

    # -- hierarchy -----------------------------------------------------

    def _link_hierarchy(self) -> None:
        summaries_by_dotted = {s.dotted: s for s in self.summaries}
        for decl in self.classes.values():
            summary = summaries_by_dotted[decl.module_dotted]
            parents = tuple(
                parent
                for base in decl.bases
                if (parent := self._resolve_class_text(base, summary))
                is not None
            )
            self._parents[decl.id] = parents
            for parent in parents:
                self._subclasses.setdefault(parent, set()).add(decl.id)

    def _mro(self, class_id: str) -> List[str]:
        """Linearized project ancestry (self first, BFS, cycles cut)."""
        order: List[str] = []
        seen: Set[str] = set()
        queue = [class_id]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            order.append(current)
            queue.extend(self._parents.get(current, ()))
        return order

    def _subtree(self, class_id: str) -> List[str]:
        """All project subclasses (transitive), excluding the root."""
        out: List[str] = []
        seen: Set[str] = set()
        queue = sorted(self._subclasses.get(class_id, ()))
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            queue.extend(sorted(self._subclasses.get(current, ())))
        return out

    def lookup_method(self, class_id: str, name: str) -> Tuple[str, ...]:
        """May-targets of ``<instance of class_id>.name()``.

        The static definition found up the MRO, plus every override in
        the project subtree — dynamic dispatch as may-call.
        """
        cache_key = (class_id, name)
        cached = self._method_cache.get(cache_key)
        if cached is not None:
            return cached
        targets: List[str] = []
        for ancestor in self._mro(class_id):
            decl = self.classes.get(ancestor)
            if decl is not None and name in decl.methods:
                targets.append(decl.methods[name])
                break
        for sub in self._subtree(class_id):
            decl = self.classes.get(sub)
            if decl is not None and name in decl.methods:
                targets.append(decl.methods[name])
        result = tuple(sorted(set(targets)))
        self._method_cache[cache_key] = result
        return result

    def property_targets(self, class_id: str, name: str) -> Tuple[str, ...]:
        """Targets of a ``.name`` read when name is a property."""
        targets = self.lookup_method(class_id, name)
        return tuple(
            t for t in targets if self.functions[t].is_property
        )


# ---------------------------------------------------------------------
# Call-site resolution within one function.
# ---------------------------------------------------------------------


def _direct_statements(node: FunctionNode) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs."""

    def visit(current: ast.AST) -> Iterator[ast.AST]:
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield child
            yield from visit(child)

    yield from visit(node)


class _FunctionResolver:
    """Resolution context for one function's call sites."""

    def __init__(
        self,
        linker: _Linker,
        summary: ModuleSummary,
        fn: FunctionDecl,
    ) -> None:
        self.linker = linker
        self.summary = summary
        self.fn = fn
        self.class_decl = (
            summary.classes.get(fn.class_name)
            if fn.class_name is not None
            else None
        )
        self.local_types = self._infer_local_types()
        self.awaited: Set[int] = {
            id(node.value)
            for node in _direct_statements(fn.node)
            if isinstance(node, ast.Await)
        }

    def _infer_local_types(self) -> Dict[str, str]:
        """Local name → class id, from annotations and constructors."""
        types: Dict[str, str] = {}
        args = self.fn.node.args
        all_args = (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        )
        if self.class_decl is not None and all_args:
            first = all_args[0].arg
            if first in ("self", "cls"):
                types[first] = self.class_decl.id
        for arg in all_args:
            text = _annotation_text(arg.annotation, self.summary.aliases)
            if text is not None:
                resolved = self.linker._resolve_class_text(
                    text, self.summary
                )
                if resolved is not None:
                    types.setdefault(arg.arg, resolved)
        for node in _direct_statements(self.fn.node):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                ctor = _dotted_text(node.value.func, self.summary.aliases)
                if ctor is None:
                    continue
                resolved = self.linker._resolve_class_text(
                    ctor, self.summary
                )
                if resolved is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        types.setdefault(target.id, resolved)
        return types

    def type_of(self, expr: ast.expr) -> Optional[str]:
        """Shallow static type (a class id) of an expression."""
        if isinstance(expr, ast.Name):
            return self.local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.type_of(expr.value)
            if base is None:
                return None
            for ancestor in self.linker._mro(base):
                decl = self.linker.classes.get(ancestor)
                if decl is not None and expr.attr in decl.attr_types:
                    resolved = self.linker._resolve_class_text(
                        decl.attr_types[expr.attr],
                        self._summary_of(decl),
                    )
                    return resolved
            return None
        if isinstance(expr, ast.Call):
            dotted = _dotted_text(expr.func, self.summary.aliases)
            if dotted is not None:
                resolved = self.linker._resolve_class_text(
                    dotted, self.summary
                )
                if resolved is not None:
                    return resolved
        return None

    def _summary_of(self, decl: ClassDecl) -> ModuleSummary:
        for summary in self.linker.summaries:
            if summary.dotted == decl.module_dotted:
                return summary
        return self.summary

    def resolve_call(self, node: ast.Call) -> CallSite:
        func = node.func
        targets: Tuple[str, ...] = ()
        external: Optional[str] = None
        unknown = False
        callee_name: Optional[str] = None

        if isinstance(func, ast.Name):
            callee_name = func.id
            targets, external, unknown = self._resolve_name(func.id)
        elif isinstance(func, ast.Attribute):
            callee_name = func.attr
            targets, external, unknown = self._resolve_attribute(func)
        else:
            unknown = True  # lambda / subscript / call-of-call: ⊤

        return CallSite(
            node=node,
            targets=targets,
            external=external,
            callee_name=callee_name,
            awaited=id(node) in self.awaited,
            unknown=unknown,
        )

    def _resolve_name(
        self, name: str
    ) -> Tuple[Tuple[str, ...], Optional[str], bool]:
        # Nested function defined in this function (or an enclosing
        # one): qualname prefix match within the module.
        prefix = f"{self.summary.dotted}.{self.fn.qualname}."
        nested = f"{prefix}{name}"
        if nested in self.summary.functions:
            return (nested,), None, False
        if name in self.summary.toplevel:
            return (self.summary.toplevel[name],), None, False
        local_class = self.summary.classes.get(name)
        if local_class is not None:
            return self._constructor_targets(local_class.id)
        if name in self.summary.aliases:
            dotted = self.summary.aliases[name]
            functions, classes = self.linker.resolve_dotted(dotted)
            if functions:
                return functions, None, False
            if len(classes) == 1:
                return self._constructor_targets(classes[0])
            return (), dotted, False
        # A builtin or an unimported global: external by bare name.
        return (), name, False

    def _constructor_targets(
        self, class_id: str
    ) -> Tuple[Tuple[str, ...], Optional[str], bool]:
        init = self.linker.lookup_method(class_id, "__init__")
        new = self.linker.lookup_method(class_id, "__new__")
        post = self.linker.lookup_method(class_id, "__post_init__")
        targets = tuple(sorted(set(init + new + post)))
        return targets, None, False

    def _resolve_attribute(
        self, func: ast.Attribute
    ) -> Tuple[Tuple[str, ...], Optional[str], bool]:
        dotted = qualified_name(func, self.summary.aliases)
        root = func
        while isinstance(root, ast.Attribute):
            root = root.value
        rooted_in_import = (
            isinstance(root, ast.Name) and root.id in self.summary.aliases
        )
        if dotted is not None and rooted_in_import:
            functions, classes = self.linker.resolve_dotted(dotted)
            if functions:
                return functions, None, False
            if len(classes) == 1:
                return self._constructor_targets(classes[0])
            return (), dotted, False
        # Locally defined class used as ``Cls.method(...)``.
        if isinstance(func.value, ast.Name):
            local_class = self.summary.classes.get(func.value.id)
            if local_class is not None:
                targets = self.linker.lookup_method(
                    local_class.id, func.attr
                )
                if targets:
                    return targets, None, False
        # Typed receiver: self, annotated parameter, constructed local,
        # or a typed attribute chain.
        receiver = self.type_of(func.value)
        if receiver is not None:
            targets = self.linker.lookup_method(receiver, func.attr)
            if targets:
                return targets, None, False
            return (), None, True
        return (), None, True


# ---------------------------------------------------------------------
# Graph assembly, SCCs, and effect propagation.
# ---------------------------------------------------------------------


def build_call_graph(project: Project) -> CallGraph:
    """Summarize every module, link, and condense."""
    summaries = [summarize_module(module) for module in project.modules]
    linker = _Linker(summaries)
    calls: Dict[str, Tuple[CallSite, ...]] = {}
    for summary in summaries:
        for fn in summary.functions.values():
            resolver = _FunctionResolver(linker, summary, fn)
            sites = tuple(
                resolver.resolve_call(node)
                for node in _direct_statements(fn.node)
                if isinstance(node, ast.Call)
            )
            calls[fn.id] = sites
    callers: Dict[str, Set[str]] = {fn_id: set() for fn_id in calls}
    for fn_id, sites in calls.items():
        for site in sites:
            for target in site.targets:
                if target in callers:
                    callers[target].add(fn_id)
    sccs = _tarjan(calls)
    return CallGraph(
        functions=dict(linker.functions),
        classes=dict(linker.classes),
        calls=calls,
        callers=callers,
        sccs=sccs,
        summaries={summary.path: summary for summary in summaries},
        linker=linker,
    )


def _tarjan(calls: Dict[str, Tuple[CallSite, ...]]) -> List[Tuple[str, ...]]:
    """Tarjan SCCs, iterative, deterministic; callees-first order."""
    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[Tuple[str, ...]] = []
    counter = [0]

    def successors(fn_id: str) -> List[str]:
        seen: Set[str] = set()
        out: List[str] = []
        for site in calls.get(fn_id, ()):
            for target in site.targets:
                if target in calls and target not in seen:
                    seen.add(target)
                    out.append(target)
        return out

    for start in sorted(calls):
        if start in index_of:
            continue
        work: List[Tuple[str, int]] = [(start, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index_of[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            succ = successors(node)
            while child_index < len(succ):
                child = succ[child_index]
                child_index += 1
                if child not in index_of:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(tuple(sorted(component)))
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def propagate_effect(
    graph: CallGraph,
    seeds: Set[str],
    *,
    edge_admits: Optional[Callable] = None,
) -> Tuple[Set[str], Dict[str, Tuple[CallSite, str]]]:
    """Close a function-level effect over the call graph.

    ``seeds`` are the functions carrying the effect directly; the
    effect propagates caller-ward through resolved edges (never through
    ⊤ sites).  ``edge_admits(caller, site, target)`` can veto an edge —
    the blocking rule uses it to skip non-awaited async callees.
    Returns the closed set and, for every *derived* member, a witness
    ``(call site, target id)`` for chain reconstruction.
    """
    effected: Set[str] = set(seeds)
    witness: Dict[str, Tuple[CallSite, str]] = {}
    # SCCs arrive callees-first, so one pass per SCC plus an inner
    # fixpoint for mutual recursion converges.
    for scc in graph.sccs:
        changed = True
        while changed:
            changed = False
            for fn_id in scc:
                if fn_id in effected:
                    continue
                caller = graph.functions[fn_id]
                for site in graph.calls.get(fn_id, ()):
                    hit = None
                    for target in site.targets:
                        if target not in effected:
                            continue
                        if edge_admits is not None and not edge_admits(
                            caller, site, graph.functions.get(target)
                        ):
                            continue
                        hit = target
                        break
                    if hit is not None:
                        effected.add(fn_id)
                        witness[fn_id] = (site, hit)
                        changed = True
                        break
    return effected, witness


# ---------------------------------------------------------------------
# The shared project-analysis phase.
# ---------------------------------------------------------------------


def project_analysis(project: Project) -> CallGraph:
    """The per-project call graph, built once and shared by rules."""
    cache = getattr(project, "_analysis_cache", None)
    if cache is None:
        return build_call_graph(project)
    if "callgraph" not in cache:
        cache["callgraph"] = build_call_graph(project)
    return cache["callgraph"]


def render_dot(graph: CallGraph) -> str:
    """The call graph as GraphViz DOT, for ``repro lint --graph``.

    Async functions are drawn as doubleoctagons; unresolved (⊤) call
    counts annotate each node so the analysis's blind spots are
    visible in the artifact, not just in the docs.
    """
    lines = ["digraph callgraph {", "  rankdir=LR;", "  node [shape=box];"]
    for fn_id in sorted(graph.functions):
        fn = graph.functions[fn_id]
        tops = sum(1 for site in graph.calls.get(fn_id, ()) if site.unknown)
        label = fn_id + (f"\\n⊤×{tops}" if tops else "")
        shape = ' shape=doubleoctagon' if fn.is_async else ""
        lines.append(f'  "{fn_id}" [label="{label}"{shape}];')
    for fn_id in sorted(graph.calls):
        targets: Set[str] = set()
        for site in graph.calls[fn_id]:
            targets.update(site.targets)
        for target in sorted(targets):
            lines.append(f'  "{fn_id}" -> "{target}";')
    lines.append("}")
    return "\n".join(lines)

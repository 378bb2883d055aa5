"""Shared AST plumbing for the rule catalogue.

Rules match *qualified names*: ``import random as r; r.choice(...)``
must be recognized as ``random.choice``.  :func:`import_aliases` builds
the local-name → dotted-name map from a module's imports and
:func:`qualified_name` resolves an expression through it.  The helpers
deliberately stop at static resolution — a name rebound at runtime is
invisible, which is the standard (and documented) blind spot of every
AST linter.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map each locally bound import name to its dotted origin.

    ``import random`` → ``{"random": "random"}``; ``import numpy as
    np`` → ``{"np": "numpy"}``; ``from random import Random as R`` →
    ``{"R": "random.Random"}``.  Relative imports keep their module
    text (``from .frames import GET`` → ``frames.GET``), which is what
    the registry rules match on.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                bound = name.asname or name.name.split(".")[0]
                aliases[bound] = name.name if name.asname else bound
        elif isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                if name.name == "*":
                    continue
                bound = name.asname or name.name
                aliases[bound] = f"{node.module}.{name.name}"
    return aliases


def qualified_name(
    node: ast.AST, aliases: Optional[Dict[str, str]] = None
) -> Optional[str]:
    """The dotted name of an expression, or ``None`` if it has none."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    if aliases is not None:
        root = aliases.get(root, root)
    parts.append(root)
    return ".".join(reversed(parts))


def direct_statements(node: FunctionNode) -> Iterator[ast.AST]:
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


def string_tuple_assignment(
    node: ast.Assign,
) -> Optional[Tuple[Tuple[str, ...], Tuple[ast.Constant, ...]]]:
    """Decode ``NAME = ("a", "b", ...)``; ``None`` if not that shape."""
    value = node.value
    if not isinstance(value, (ast.Tuple, ast.List)):
        return None
    texts: List[str] = []
    elements: List[ast.Constant] = []
    for element in value.elts:
        if not (
            isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ):
            return None
        texts.append(element.value)
        elements.append(element)
    return tuple(texts), tuple(elements)


def call_argument_strings(tree: ast.Module) -> Dict[str, int]:
    """Every string constant used as a call argument, with counts.

    This is the "is this registry entry referenced anywhere" oracle:
    catalogue strings travel as arguments (``tracer.emit("send", ...)``,
    ``observer("wal-commit", n)``), while docstrings and the registry
    tuples themselves do not.
    """
    used: Dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for argument in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(argument, ast.Constant) and isinstance(
                argument.value, str
            ):
                used[argument.value] = used.get(argument.value, 0) + 1
    return used


def emit_call_type(node: ast.Call) -> Optional[str]:
    """The literal event type of a ``<x>.emit("type", ...)`` call.

    Returns ``None`` for non-emit calls *and* for emits whose type is
    computed — the dynamic relay in ``wal.log`` forwards types it was
    handed, which static analysis cannot judge (its *callers* pass
    literals, and those are checked as call arguments).
    """
    if not (
        isinstance(node.func, ast.Attribute) and node.func.attr == "emit"
    ):
        return None
    if not node.args:
        return None
    first = node.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None

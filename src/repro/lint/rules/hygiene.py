"""Hygiene rules: the event loop and exception handlers.

``async-blocking``
    A call written directly inside an ``async def`` body that resolves
    to a known-blocking callable (``time.sleep``, ``flock``,
    ``send_frame``/``recv_frame``, ``sendall``, subprocess) stalls the
    event loop and every peer connection with it.  Nested ``def`` and
    ``class`` bodies are skipped: a sync helper defined inside the
    coroutine runs wherever it is called, usually off-loop.  The check
    is lexical; a blocking call hidden behind a helper is out of scope.

``broad-except``
    ``except Exception`` (or broader) that silently swallows is how a
    real fault becomes a multi-day hunt: the system keeps running with
    corrupted assumptions and zero evidence.  Broad handlers are
    allowed only when they visibly do something with the failure —
    re-raise, bind and use the exception object, or push a note into
    the trace/metrics/warnings machinery.  Anything else needs a
    narrowed type or a reasoned suppression.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.lint.astutil import (
    direct_statements,
    import_aliases,
    qualified_name,
)
from repro.lint.engine import Finding, Project, Rule

#: Known-blocking callables by qualified name.
BLOCKING_CALLS = frozenset(
    (
        "time.sleep",
        "fcntl.flock",
        "fcntl.lockf",
        "socket.create_connection",
        "socket.getaddrinfo",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
    )
)

#: Blocking helpers/methods matched by bare callee name: the repo's own
#: synchronous frame helpers, and socket methods no asyncio stream
#: object shares a name with.
BLOCKING_CALLEE_NAMES = frozenset(("send_frame", "recv_frame", "sendall"))

#: Exception types too broad to swallow silently.
BROAD_EXCEPTIONS = frozenset(("Exception", "BaseException"))

#: Handler calls that count as "the failure was recorded somewhere a
#: human or a metric will see it".
REPORTING_ATTRS = frozenset(("emit", "inc", "warn", "warning", "exception"))


def _is_broad(handler_type: Optional[ast.expr]) -> bool:
    if handler_type is None:
        return True
    if isinstance(handler_type, ast.Name):
        return handler_type.id in BROAD_EXCEPTIONS
    if isinstance(handler_type, ast.Tuple):
        return any(_is_broad(element) for element in handler_type.elts)
    return False


def _blocking_label(
    call: ast.Call, aliases: Dict[str, str]
) -> Optional[str]:
    """The blocking callable ``call`` resolves to, or ``None``."""
    name = qualified_name(call.func, aliases)
    if name in BLOCKING_CALLS:
        return name
    func = call.func
    if isinstance(func, ast.Attribute):
        bare: Optional[str] = func.attr
    else:
        bare = func.id if isinstance(func, ast.Name) else None
    return bare if bare in BLOCKING_CALLEE_NAMES else None


class AsyncBlockingRule(Rule):
    id = "async-blocking"
    summary = (
        "no blocking calls (time.sleep, flock, send_frame/recv_frame, "
        "sendall, subprocess) directly inside an async def body"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            aliases = import_aliases(module.tree)
            for fn in ast.walk(module.tree):
                if not isinstance(fn, ast.AsyncFunctionDef):
                    continue
                for node in direct_statements(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    label = _blocking_label(node, aliases)
                    if label is not None:
                        yield self.finding(
                            module,
                            node,
                            f"blocking call {label}() inside async def "
                            f"{fn.name}: it stalls the event loop and every "
                            "peer connection with it; use the asyncio "
                            "equivalent or move it off-loop",
                        )


class BroadExceptRule(Rule):
    id = "broad-except"
    summary = (
        "broad except handlers must re-raise, use the bound exception, "
        "or record via trace/metrics/warnings"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if not _is_broad(node.type):
                    continue
                if self._handled(node):
                    continue
                label = (
                    ast.unparse(node.type)
                    if node.type is not None
                    else "bare except"
                )
                yield self.finding(
                    module,
                    node,
                    f"except {label} swallows the failure silently: "
                    "re-raise, narrow to the expected exceptions, or "
                    "record it (trace emit / metrics inc / warnings)",
                )

    def _handled(self, handler: ast.ExceptHandler) -> bool:
        for node in handler.body:
            for child in ast.walk(node):
                if isinstance(child, ast.Raise):
                    return True
                if (
                    handler.name is not None
                    and isinstance(child, ast.Name)
                    and child.id == handler.name
                ):
                    return True
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in REPORTING_ATTRS
                ):
                    return True
        return False

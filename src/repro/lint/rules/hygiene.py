"""Exception hygiene, plus the blocking-call surface shared with the
interprocedural rules.

The :data:`BLOCKING_CALLS`/:data:`BLOCKING_CALLEE_NAMES` tables below
seed :class:`repro.lint.rules.interproc.TransitiveBlockingRule`, which
propagates the blocking effect through the call graph, so wrapping
``flock`` in a helper does not hide it from the gate.

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
from typing import Iterator, Optional

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

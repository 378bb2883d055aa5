"""``frozen-mutation``: ``object.__setattr__`` only where sanctioned.

Lattice values, causal contexts, and protocol :class:`Message` objects
are immutable by contract — equality, hashing, sharing across
neighbours, and the frame memo all lean on it.  ``object.__setattr__``
is the one escape hatch, legitimate in exactly two shapes:

* **construction** — ``__init__`` / ``__post_init__`` writing ``self``
  before the instance escapes, and methods writing a *fresh* instance
  they just made with ``SomeClass.__new__(...)`` (the allocation idiom
  of ``map_lattice._fresh``);
* **sanctioned memo sites** — lazy caches of pure functions of the
  frozen value (``MapLattice._size``, ``_bytes_cache``,
  ``Message._frame_memo``), which must
  each carry a ``# repro: lint-ok[frozen-mutation] reason`` so the
  full allowlist is greppable and every entry explains itself.

Everything else is a finding: an unsanctioned write to a frozen object
is how "byte-identical" silently stops being true.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.lint.engine import Finding, Project, Rule
from repro.lint.astutil import FunctionNode, walk_with_function

CONSTRUCTOR_NAMES = frozenset(("__init__", "__post_init__", "__new__"))


def _fresh_locals(function: FunctionNode) -> Set[str]:
    """Names bound in ``function`` from a ``X.__new__(...)`` call."""
    fresh: Set[str] = set()
    for node in ast.walk(function):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        callee = node.value.func
        if isinstance(callee, ast.Attribute) and callee.attr == "__new__":
            for target in node.targets:
                if isinstance(target, ast.Name):
                    fresh.add(target.id)
    return fresh


class FrozenMutationRule(Rule):
    id = "frozen-mutation"
    summary = (
        "object.__setattr__ only in constructors, on fresh __new__ "
        "instances, or at suppression-sanctioned memo sites"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            for node, function in walk_with_function(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__setattr__"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "object"
                    and node.args
                ):
                    continue
                if self._sanctioned(node.args[0], function):
                    continue
                target = (
                    ast.unparse(node.args[0])
                    if hasattr(ast, "unparse")
                    else "<target>"
                )
                yield self.finding(
                    module,
                    node,
                    f"object.__setattr__ on {target} outside a "
                    "constructor or fresh __new__ instance mutates a "
                    "frozen object; sanctioned memo sites must carry "
                    "`# repro: lint-ok[frozen-mutation] reason`",
                )

    def _sanctioned(
        self, target: ast.expr, function: Optional[FunctionNode]
    ) -> bool:
        if function is None or not isinstance(target, ast.Name):
            return False
        if target.id == "self" and function.name in CONSTRUCTOR_NAMES:
            return True
        return target.id in _fresh_locals(function)

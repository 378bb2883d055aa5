"""The registry-completeness rule that no structure can replace.

Trace events are emitted by literal ``.emit("type", ...)`` calls spread
over every layer, so unlike the wire-kind and verb registries (built by
decorators, complete by construction) the event catalogue can only be
policed from outside:

``event-registry``
    Every literal ``.emit("type", ...)`` must name a catalogued
    :data:`EVENT_TYPES` entry (``Tracer.emit`` raises on unknown types
    at runtime — this catches the typo before a traced run does), and
    every catalogued entry must be referenced by some call argument in
    the tree, so the catalogue cannot grow orphans.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.lint.engine import Finding, Module, Project, Rule
from repro.lint.astutil import (
    call_argument_strings,
    emit_call_type,
    string_tuple_assignment,
)


def _find_string_tuple(
    project: Project, name: str
) -> Optional[Tuple[Module, ast.Assign, Tuple[str, ...], Tuple[ast.Constant, ...]]]:
    for module, node in project.assignments(name):
        decoded = string_tuple_assignment(node)
        if decoded is not None:
            texts, elements = decoded
            return module, node, texts, elements
    return None


class EventRegistryRule(Rule):
    id = "event-registry"
    summary = (
        "every literal .emit(type) is catalogued in EVENT_TYPES, and "
        "no catalogue entry is an orphan nothing references"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        catalogue = _find_string_tuple(project, "EVENT_TYPES")
        if catalogue is None:
            return
        module, _, names, elements = catalogue
        known = set(names)
        emitted: Set[str] = set()
        for emitting, node, event_type in self._literal_emits(project):
            emitted.add(event_type)
            if event_type not in known:
                yield self.finding(
                    emitting,
                    node,
                    f"emit({event_type!r}) is not in EVENT_TYPES: "
                    "Tracer.emit will reject it at runtime — catalogue "
                    "the type or fix the typo",
                )
        # Orphan check only when the emitting side of the codebase is
        # in scope at all; linting the catalogue module alone proves
        # nothing about use.
        if not (emitted & known):
            return
        used: Set[str] = set()
        for scanned in project.modules:
            used.update(call_argument_strings(scanned.tree))
        for name, element in zip(names, elements):
            if name not in used:
                yield self.finding(
                    module,
                    element,
                    f"EVENT_TYPES entry {name!r} is referenced by no "
                    "call in the scanned tree: dead catalogue entries "
                    "hide real coverage gaps — emit it or retire it",
                )

    def _literal_emits(
        self, project: Project
    ) -> Iterator[Tuple[Module, ast.Call, str]]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    event_type = emit_call_type(node)
                    if event_type is not None:
                        yield module, node, event_type

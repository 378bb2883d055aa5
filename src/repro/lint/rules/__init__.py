"""The rule catalogue.

Rules are instantiated fresh per pass (they are stateless, but the
list is cheap and a future configurable rule may not be).  The ids
here — plus the engine's own ``parse-error`` and ``suppression`` — are
the valid targets of ``# repro: lint-ok[rule-id] reason`` comments.
Every rule is one lexical pass over one module (or one registry and
its use sites): none builds a control-flow graph or a call graph.

Two profiles exist: ``full`` (the CI gate on ``src``) and ``relaxed``
for ``tests/`` and ``benchmarks/`` — there only seeded-RNG discipline
and broad-except hygiene apply, because test harnesses legitimately
touch wall clocks and spawn subprocesses from sync code, but an
unseeded ``random.Random()`` in a test still silently breaks every
seed-reproducibility claim the suite makes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.lint.engine import Rule
from repro.lint.rules.determinism import GlobalRngRule, WallClockRule
from repro.lint.rules.hygiene import AsyncBlockingRule, BroadExceptRule
from repro.lint.rules.registries import EventRegistryRule

RULE_CLASSES = (
    GlobalRngRule,
    WallClockRule,
    EventRegistryRule,
    AsyncBlockingRule,
    BroadExceptRule,
)

#: Rule sets by profile name.  ``relaxed`` gates tests/benchmarks.
PROFILES = {
    "full": RULE_CLASSES,
    "relaxed": (GlobalRngRule, BroadExceptRule),
}


def ALL_RULES() -> List[Rule]:
    """A fresh instance of every rule, in catalogue order."""
    return [rule_class() for rule_class in RULE_CLASSES]


def rules_for_profile(profile: str = "full") -> List[Rule]:
    """Fresh rule instances for one profile; raises on unknown names."""
    try:
        classes = PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown lint profile {profile!r}; "
            f"choose from {', '.join(sorted(PROFILES))}"
        ) from None
    return [rule_class() for rule_class in classes]


def rule_catalogue() -> Dict[str, str]:
    """rule id → one-line summary, for ``lint --list-rules``."""
    return {rule.id: rule.summary for rule in ALL_RULES()}

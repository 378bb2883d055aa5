"""Determinism rules: seeded randomness everywhere, pure clocks in core.

The experiment fingerprints (``benchmarks/fingerprint_sim_records.py``)
assert that whole simulations are byte-identical functions of their
seeds.  One module-level ``random.random()`` or ``time.time()`` inside
the deterministic core silently breaks that, and the failure surfaces
days later as an unexplainable fingerprint drift.  Two rules enforce
the discipline:

``det-rng``
    Repo-wide: never the process-global RNG (``random.random`` and
    friends mutate interpreter-wide hidden state; two call sites that
    *each* look deterministic interleave nondeterministically), and
    never an unseeded ``random.Random()``.  Every stream must be
    ``random.Random(seed)`` derived from configuration.

``det-clock``
    Inside the deterministic core only (lattices, causal machinery,
    synchronizers, codec, kv store, simulator, WAL, and the sim-side
    transport seam): no wall clocks, no environment reads, no OS
    entropy.  The serving stack, the benchmarks, the TCP transport and
    the runtime's processing-cost clock are real-time by design and
    exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, Module, Project, Rule
from repro.lint.astutil import import_aliases, qualified_name

#: Module-level functions of :mod:`random` that draw from the shared
#: process-global stream.
GLOBAL_RNG_CALLS = frozenset(
    f"random.{name}"
    for name in (
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "getrandbits",
        "randbytes",
        "seed",
    )
)

#: Wall clocks, entropy, and environment reads banned from the core.
IMPURE_CALLS = frozenset(
    (
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getenv",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
    )
)

#: Path fragments that place a module inside the deterministic core.
#: ``net/`` is split: the sim/clock/freerun/transport seam must stay
#: pure (the round clock *is* simulated time), while ``net/tcp.py``
#: and ``net/runtime.py`` legitimately touch real time (socket
#: deadlines, the ``perf_counter`` spans of per-node processing cost).
DETERMINISTIC_CORE = (
    "repro/lattice/",
    "repro/causal/",
    "repro/sync/",
    "repro/kv/",
    "repro/sim/",
    "repro/wal/",
    "repro/codec.py",
    "repro/net/sim.py",
    "repro/net/transport.py",
    "repro/net/clock.py",
    "repro/net/freerun.py",
)


def in_deterministic_core(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(fragment in normalized for fragment in DETERMINISTIC_CORE)


class GlobalRngRule(Rule):
    id = "det-rng"
    summary = (
        "no process-global random.* calls or unseeded random.Random() "
        "anywhere; every stream is random.Random(seed)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            aliases = import_aliases(module.tree)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = qualified_name(node.func, aliases)
                if name in GLOBAL_RNG_CALLS:
                    yield self.finding(
                        module,
                        node,
                        f"{name}() draws from the process-global RNG; "
                        "derive a stream with random.Random(seed) so "
                        "replays are pure functions of configuration",
                    )
                elif (
                    name == "random.Random"
                    and not node.args
                    and not node.keywords
                ):
                    yield self.finding(
                        module,
                        node,
                        "random.Random() without a seed falls back to OS "
                        "entropy; pass a seed derived from configuration",
                    )


class WallClockRule(Rule):
    id = "det-clock"
    summary = (
        "no wall clocks, OS entropy, or environment reads inside the "
        "deterministic core (lattice/causal/sync/kv/sim/wal/codec and "
        "the sim transport seam)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if not in_deterministic_core(module.path):
                continue
            yield from self._check_module(module)

    def _check_module(self, module: Module) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = qualified_name(node.func, aliases)
                if name in IMPURE_CALLS:
                    yield self.finding(
                        module,
                        node,
                        f"{name}() inside the deterministic core: sim "
                        "fingerprints must be pure functions of seeds — "
                        "inject the value through config or a clock seam",
                    )
            elif isinstance(node, ast.Attribute):
                if (
                    node.attr == "environ"
                    and qualified_name(node, aliases) == "os.environ"
                ):
                    yield self.finding(
                        module,
                        node,
                        "os.environ read inside the deterministic core: "
                        "environment state is invisible to seeds; thread "
                        "the setting through configuration",
                    )

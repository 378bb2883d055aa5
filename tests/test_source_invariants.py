"""Source invariants the seeded runs rest on, read off the AST.

det-rng: no process-global ``random.*`` draw or unseeded ``random.Random()``; det-clock: no
wall clock, OS entropy or environment read in the deterministic core; async-blocking: no
blocking call directly in an ``async def`` (nested defs run elsewhere); broad-except: a broad
handler re-raises, uses the bound exception or records the failure; unused-import: every
imported name is read, listed in ``__all__`` or named in a string annotation (``__init__.py``
re-exports, ``__future__`` and ``# noqa: F401`` lines are exempt).  ``examples/`` holds all
five.  ``tests/`` and ``benchmarks/`` may read clocks and block, so they hold det-rng,
broad-except and unused-import only.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RULES = ("det-rng", "det-clock", "async-blocking", "broad-except")
RELAXED = ("det-rng", "broad-except", "unused-import")
#: Known findings in files that may not change here, each waiting for its own fix.
EXEMPT = {("benchmarks/perf/run.py", 43, "unused-import")}  # its unused ``List``
GLOBAL_RNG = {f"random.{name}" for name in (
    "random randint randrange choice choices shuffle sample uniform triangular betavariate "
    "expovariate gammavariate gauss lognormvariate normalvariate vonmisesvariate "
    "paretovariate weibullvariate getrandbits randbytes seed").split()}
IMPURE = {"os.urandom", "os.getenv", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
          *(f"time.{n}{ns}" for n in ("time", "monotonic", "perf_counter", "process_time")
            for ns in ("", "_ns")), "datetime.date.today",
          *(f"datetime.datetime.{n}" for n in ("now", "utcnow", "today")),
          *("secrets." + n for n in "token_bytes token_hex token_urlsafe randbelow choice".split())}
BLOCKING = {"time.sleep", "fcntl.flock", "fcntl.lockf", "socket.create_connection",
            "socket.getaddrinfo", *("subprocess." + n for n in "run call check_call check_output".split())}
BLOCKING_NAMES = {"send_frame", "recv_frame", "sendall"}  # on any receiver
REPORTING = {"emit", "inc", "warn", "warning", "exception"}
# net/ is split: its sim seam is simulated time, tcp.py and runtime.py are real-time.
DETERMINISTIC_CORE = ("repro/lattice/", "repro/causal/", "repro/sync/", "repro/kv/",
                      "repro/sim/", "repro/wal/", "repro/codec.py", "repro/net/sim.py",
                      "repro/net/transport.py", "repro/net/clock.py", "repro/net/freerun.py")


def _aliases(tree):
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".")[0]
                aliases[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module:
            aliases.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    return aliases


def _name(node, aliases):
    parts = []
    while isinstance(node, ast.Attribute):
        parts, node = [node.attr, *parts], node.value
    return ".".join([aliases.get(node.id, node.id), *parts]) if isinstance(node, ast.Name) else None


def _direct(node):
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child
            yield from _direct(child)


def _broad(kind):
    if isinstance(kind, ast.Tuple):
        return any(_broad(k) for k in kind.elts)
    return kind is None or getattr(kind, "id", None) in ("Exception", "BaseException")


def _handled(handler):
    return any(
        isinstance(n, ast.Raise)
        or (isinstance(n, ast.Name) and n.id == handler.name)
        or (isinstance(n, ast.Call) and getattr(n.func, "attr", None) in REPORTING)
        for n in ast.walk(ast.Module(body=handler.body, type_ignores=[])))


def _unused_imports(path, tree, lines):
    if path.endswith("__init__.py"):  # a package's imports are its re-exports
        return []
    bound, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", None) for t in node.targets]:
            used.update(e.value for e in getattr(node.value, "elts", ()) if isinstance(e, ast.Constant))
        for note in filter(None, (getattr(node, "returns", None), getattr(node, "annotation", None))):
            texts = [n.value for n in ast.walk(note) if isinstance(getattr(n, "value", None), str)]
            used.update(n.id for text in texts for n in ast.walk(ast.parse(text, mode="eval"))
                        if isinstance(n, ast.Name))
    return [(path, line, "unused-import") for name, line in bound.items()
            if name not in used and "# noqa: F401" not in lines[line - 1]]


def findings(path, source, rules=RULES):
    """``(path, line, rule)`` for every violation in one module."""
    tree, found = ast.parse(source, path), []
    if "unused-import" in rules:
        found += _unused_imports(path, tree, source.splitlines())
    aliases = _aliases(tree)
    core = any(fragment in path for fragment in DETERMINISTIC_CORE)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _name(node.func, aliases)
            if name in GLOBAL_RNG or (name == "random.Random" and not (node.args or node.keywords)):
                found.append((path, node.lineno, "det-rng"))
            if core and name in IMPURE:
                found.append((path, node.lineno, "det-clock"))
        elif isinstance(node, ast.Attribute) and core and _name(node, aliases) == "os.environ":
            found.append((path, node.lineno, "det-clock"))
        elif isinstance(node, ast.AsyncFunctionDef):
            for call in (c for c in _direct(node) if isinstance(c, ast.Call)):
                bare = getattr(call.func, "attr", getattr(call.func, "id", None))
                if _name(call.func, aliases) in BLOCKING or bare in BLOCKING_NAMES:
                    found.append((path, call.lineno, "async-blocking"))
        elif isinstance(node, ast.ExceptHandler) and _broad(node.type) and not _handled(node):
            found.append((path, node.lineno, "broad-except"))
    return sorted(f for f in found if f[2] in rules)


@pytest.mark.parametrize("tree, rules", [
    ("src/repro", (*RULES, "unused-import")), ("tests", RELAXED), ("benchmarks", RELAXED),
    ("examples", (*RULES, "unused-import"))])
def test_tree_holds_the_invariants(tree, rules):
    paths = sorted((ROOT / tree).rglob("*.py"))
    found = [f for p in paths for f in findings(p.relative_to(ROOT).as_posix(), p.read_text(), rules)
             if f not in EXEMPT]
    assert paths
    assert not found, "\n".join(f"{p}:{line}: {rule}" for p, line, rule in found)


CORE, EDGE = "src/repro/sim/x.py", "src/repro/serve/x.py"
CLOCK, ASYNC = "import time\nnow = time.time()\n", "import time\nasync def g(a):\n    {}\n"
TRY = "def f(self):\n    try:\n        self.step()\n    except {}:\n        {}\n"
BLOCK, CLEAN = ["async-blocking"], []
BLOCKING_PAIRS, IMPURE_PAIRS = (sorted(n.split(".", 1) for n in names) for names in (BLOCKING, IMPURE))


def row_ids(rows):
    """One-line ids, ``<rules>-<n>`` (``clean-<n>`` for a near miss): a
    row's source spans lines, so it cannot name the row."""
    return [f"{'+'.join(dict.fromkeys(expected)) or 'clean'}-{n}"
            for n, (_, _, expected) in enumerate(rows)]


RULE_ROWS = [
    # The two trees CI used to plant, each named by its rules.
    (CORE, "import random\nimport time\nx = random.random() * time.time()\n", ["det-clock", "det-rng"]),
    (EDGE, ASYNC.format("time.sleep(1)"), BLOCK),
    (EDGE, "import random\nx = random.choice([1])\nrng = random.Random()\n", ["det-rng"] * 2),
    (EDGE, "from random import shuffle as mix\nmix([1])\n", ["det-rng"]),
    (EDGE, "import random\nrandom.Random(1).choice([1])\nrandom.Random(seed=7)\n", CLEAN),
    *[(p, CLOCK, ["det-clock"]) for p in (CORE, "src/repro/net/sim.py", "src/repro/net/transport.py")],
    *[(p, CLOCK, CLEAN) for p in ("src/repro/net/tcp.py", "src/repro/net/runtime.py", EDGE)],
    ("src/repro/kv/x.py", "import os\nmode = os.environ['MODE']\n", ["det-clock"]),
    ("src/repro/kv/x.py", "import os\np = os.path.join('a', 'b')\n", CLEAN),
    (EDGE, "from fcntl import flock as hold\n" + ASYNC.format("hold(a, 2)"), BLOCK),
    (EDGE, "import subprocess\n" + ASYNC.format("if subprocess.call(a):\n        return"), BLOCK),
    (EDGE, "import time\ndef make():\n    async def tick():\n        time.sleep(1)\n", BLOCK),
    (EDGE, "import time\nclass T:\n    async def g(self):\n        time.sleep(1)\n", BLOCK),
    (EDGE, ASYNC.format("async def inner():\n        time.sleep(1)"), BLOCK),
    (EDGE, ASYNC.format("def nap():\n        time.sleep(1)\n    await a.run(None, nap)"), CLEAN),
    (EDGE, ASYNC.format("await a.sleep(0)\n    await asyncio.to_thread(time.sleep, 1)"), CLEAN),
    (EDGE, "from asyncio import sleep\n" + ASYNC.format("await sleep(0)"), CLEAN),
    (EDGE, ASYNC.format("class C:\n        def f(self):\n            time.sleep(1)"), CLEAN),
    (EDGE, "import time\ntime.sleep(0)\ndef settle(a):\n    time.sleep(0)\n    send_frame(a)\n", CLEAN),
    # Every listed callable, however imported or called.
    *[(EDGE, f"import random\nx = {n}()\n", ["det-rng"]) for n in sorted(GLOBAL_RNG)],
    *[(CORE, f"import {m}\nx = {m}.{f}()\n", ["det-clock"]) for m, f in IMPURE_PAIRS],
    *[(CORE, f"from {m} import {f.split('.')[0]}\nx = {f}()\n", ["det-clock"]) for m, f in IMPURE_PAIRS],
    *[(EDGE, f"import {m}\n" + ASYNC.format(f"{m}.{f}(a)"), BLOCK) for m, f in BLOCKING_PAIRS],
    *[(EDGE, f"from {m} import {f}\n" + ASYNC.format(f"{f}(a)"), BLOCK) for m, f in BLOCKING_PAIRS],
    *[(EDGE, ASYNC.format(f"{n}(a)\n    a.peer.{n}(a)"), BLOCK * 2) for n in sorted(BLOCKING_NAMES)],
    *[(EDGE, TRY.format(kind, "pass"), ["broad-except"]) for kind in ("", "Exception", "(OSError, Exception)")],
    *[(EDGE, TRY.format(*handler), CLEAN) for handler in [
        ("OSError", "pass"), ("Exception", "raise"), ("Exception as exc", "self.last = repr(exc)"),
        ("Exception", "self.tracer.emit(CRASH)"), ("Exception", "warnings.warn('step failed')")]],
]


@pytest.mark.parametrize("path, source, expected", RULE_ROWS, ids=row_ids(RULE_ROWS))
def test_rule_triggers_and_near_misses(path, source, expected):
    assert [rule for _, _, rule in findings(path, source)] == expected


UNUSED = ["unused-import"]


UNUSED_ROWS = [
    (EDGE, "import os\n", UNUSED),
    (EDGE, "import os.path\nfrom typing import List, Tuple\nx: List[int] = []\n", UNUSED * 2),
    (EDGE, "from repro.kv import KVStore as Store\n'''A Store, the KVStore.'''\n", UNUSED),
    (EDGE, "import os.path\nx = os.path.sep\n", CLEAN),
    (EDGE, "from typing import List\ndef f(a: 'List[int]') -> 'List[int]':\n    return a\n", CLEAN),
    (EDGE, "from repro.kv import KVStore\n__all__ = ['KVStore']\n", CLEAN),
    (EDGE, "from __future__ import annotations\n", CLEAN),
    (EDGE, "import repro  # noqa: F401 -- registers the types\n", CLEAN),
    ("src/repro/kv/__init__.py", "from repro.kv.store import KVStore\n", CLEAN),
]


@pytest.mark.parametrize("path, source, expected", UNUSED_ROWS, ids=row_ids(UNUSED_ROWS))
def test_unused_import_triggers_and_near_misses(path, source, expected):
    assert [rule for _, _, rule in findings(path, source, UNUSED)] == expected

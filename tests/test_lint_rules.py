"""Golden corpus for every lint rule: triggers and near-misses.

Each rule gets at least one snippet that *must* produce a finding and
one near-miss that *must* stay clean — the near-misses are the actual
specification, since they pin where the rule stops.  Snippets are
linted in-memory through :func:`load_module`, with virtual paths chosen
to exercise path-scoped rules (``repro/sim/...`` is deterministic core,
``repro/serve/...`` is not).
"""

import ast

import pytest

from repro.lint import ALL_RULES, run_rules
from repro.lint.engine import Project, load_module
from repro.lint.rules.determinism import in_deterministic_core
from repro.lint.rules.hygiene import BLOCKING_CALLEE_NAMES, BLOCKING_CALLS


def lint_sources(sources):
    """Lint a {virtual path: source} mapping with the full rule set."""
    project = Project(
        modules=[load_module(path, text) for path, text in sources.items()]
    )
    return run_rules(project, ALL_RULES())


def rules_hit(sources):
    return sorted({f.rule for f in lint_sources(sources).findings})


class TestDetRng:
    def test_global_rng_call_triggers(self):
        assert rules_hit(
            {"anywhere.py": "import random\nx = random.choice([1, 2])\n"}
        ) == ["det-rng"]

    def test_from_import_alias_resolved(self):
        assert rules_hit(
            {"anywhere.py": "from random import shuffle as mix\nmix([1])\n"}
        ) == ["det-rng"]

    def test_unseeded_random_instance_triggers(self):
        assert rules_hit(
            {"anywhere.py": "import random\nrng = random.Random()\n"}
        ) == ["det-rng"]

    def test_seeded_stream_is_clean(self):
        source = (
            "import random\n"
            "rng = random.Random(1234)\n"
            "x = rng.choice([1, 2])\n"
            "y = random.Random(seed=7)\n"
        )
        assert rules_hit({"anywhere.py": source}) == []


class TestDetClock:
    CLOCK = "import time\nnow = time.time()\n"

    def test_wall_clock_in_core_triggers(self):
        assert rules_hit({"src/repro/sim/runner.py": self.CLOCK}) == [
            "det-clock"
        ]

    def test_same_code_outside_core_is_clean(self):
        # The serving stack and the TCP transport are real-time by design.
        assert rules_hit({"src/repro/serve/replica.py": self.CLOCK}) == []
        assert rules_hit({"src/repro/net/tcp.py": self.CLOCK}) == []

    def test_environ_read_in_core_triggers(self):
        source = "import os\nmode = os.environ['MODE']\n"
        assert rules_hit({"src/repro/kv/store.py": source}) == ["det-clock"]

    def test_os_path_attribute_is_not_environ(self):
        source = "import os\np = os.path.join('a', 'b')\n"
        assert rules_hit({"src/repro/kv/store.py": source}) == []

    def test_core_boundary_matches_the_documented_split(self):
        assert in_deterministic_core("src/repro/net/sim.py")
        assert in_deterministic_core("src/repro/net/transport.py")
        assert not in_deterministic_core("src/repro/net/tcp.py")
        assert not in_deterministic_core("src/repro/net/runtime.py")
        assert not in_deterministic_core("src/repro/serve/cluster.py")


class TestEventRegistry:
    def test_uncatalogued_emit_triggers(self):
        catalogue = 'EVENT_TYPES = ("send",)\n'
        emitter = (
            "def go(tracer, n):\n"
            '    tracer.emit("send", bytes=n)\n'
            '    tracer.emit("sned", bytes=n)\n'
        )
        result = lint_sources({"trace.py": catalogue, "t.py": emitter})
        (finding,) = result.findings
        assert finding.rule == "event-registry"
        assert "'sned'" in finding.message

    def test_orphan_catalogue_entry_triggers(self):
        catalogue = 'EVENT_TYPES = ("send", "never-emitted")\n'
        emitter = 'def go(tracer):\n    tracer.emit("send")\n'
        result = lint_sources({"trace.py": catalogue, "t.py": emitter})
        (finding,) = result.findings
        assert "'never-emitted'" in finding.message

    def test_complete_catalogue_is_clean(self):
        catalogue = 'EVENT_TYPES = ("send", "deliver")\n'
        emitter = (
            "def go(tracer):\n"
            '    tracer.emit("send")\n'
            '    tracer.emit("deliver")\n'
        )
        assert rules_hit({"trace.py": catalogue, "t.py": emitter}) == []

    def test_dynamic_emit_is_skipped(self):
        # The WAL relay forwards emit(event_type, ...) — a variable
        # first argument proves nothing and must not be flagged.
        catalogue = 'EVENT_TYPES = ("send",)\n'
        emitter = (
            "def relay(tracer, event_type):\n"
            '    tracer.emit("send")\n'
            "    tracer.emit(event_type)\n"
        )
        assert rules_hit({"trace.py": catalogue, "t.py": emitter}) == []

    def test_orphan_check_gated_without_emitting_side(self):
        # Linting the catalogue module alone proves nothing about use.
        assert (
            rules_hit({"trace.py": 'EVENT_TYPES = ("send", "deliver")\n'})
            == []
        )

    def test_entry_used_as_call_argument_is_not_orphan(self):
        # wal-commit is never a literal .emit() but is passed to the
        # observer callable; that counts as a reference.
        catalogue = 'EVENT_TYPES = ("send", "wal-commit")\n'
        emitter = (
            "def go(tracer, observer):\n"
            '    tracer.emit("send")\n'
            '    observer("wal-commit", 3)\n'
        )
        assert rules_hit({"trace.py": catalogue, "t.py": emitter}) == []


class TestAsyncBlocking:
    """Lexical: a blocking call written directly in an ``async def``."""

    def test_time_sleep_in_async_def_triggers(self):
        source = (
            "import time\n"
            "async def pump(self):\n"
            "    time.sleep(0.1)\n"
        )
        assert rules_hit({"tcp.py": source}) == ["async-blocking"]

    def test_aliased_flock_triggers(self):
        source = (
            "from fcntl import flock as hold\n"
            "import fcntl as locks\n"
            "async def guard(fh):\n"
            "    hold(fh, 2)\n"
            "    locks.flock(fh, 8)\n"
        )
        findings = lint_sources({"replica.py": source}).findings
        assert [(f.rule, f.line) for f in findings] == [
            ("async-blocking", 4),
            ("async-blocking", 5),
        ]
        assert all("fcntl.flock()" in f.message for f in findings)

    def test_sock_sendall_triggers(self):
        source = (
            "async def push(sock, payload):\n"
            "    sock.sendall(payload)\n"
        )
        assert rules_hit({"tcp.py": source}) == ["async-blocking"]

    def test_send_frame_in_async_def_triggers(self):
        source = (
            "async def answer(self, sock, frame):\n"
            "    send_frame(sock, frame)\n"
        )
        assert rules_hit({"serve.py": source}) == ["async-blocking"]

    def test_flock_in_async_method_triggers(self):
        source = (
            "import fcntl\n"
            "class T:\n"
            "    async def lock(self, fh):\n"
            "        fcntl.flock(fh, 2)\n"
        )
        assert rules_hit({"tcp.py": source}) == ["async-blocking"]

    def test_await_asyncio_sleep_is_clean(self):
        source = (
            "import asyncio\n"
            "async def pump(self):\n"
            "    await asyncio.sleep(0.1)\n"
        )
        assert rules_hit({"tcp.py": source}) == []

    def test_blocking_call_in_nested_sync_def_is_clean(self):
        # The helper runs wherever it is called (here: an executor).
        source = (
            "import time\n"
            "async def pump(loop):\n"
            "    def nap():\n"
            "        time.sleep(0.1)\n"
            "    await loop.run_in_executor(None, nap)\n"
        )
        assert rules_hit({"tcp.py": source}) == []

    def test_blocking_call_in_sync_def_is_clean(self):
        # The controller-side frame protocol is synchronous on purpose.
        source = (
            "import time\n"
            "def settle(self):\n"
            "    time.sleep(0.1)\n"
            "    send_frame(self.sock, b'x')\n"
        )
        assert rules_hit({"cluster.py": source}) == []


    @pytest.mark.parametrize("qualified", sorted(BLOCKING_CALLS))
    def test_every_qualified_blocking_call_triggers(self, qualified):
        module, attr = qualified.rsplit(".", 1)
        source = (
            f"import {module}\n"
            "async def step(arg):\n"
            f"    {module}.{attr}(arg)\n"
        )
        (finding,) = lint_sources({"tcp.py": source}).findings
        assert (finding.rule, finding.line) == ("async-blocking", 3)
        assert f"{qualified}()" in finding.message

    @pytest.mark.parametrize("qualified", sorted(BLOCKING_CALLS))
    def test_from_imported_blocking_call_triggers(self, qualified):
        module, attr = qualified.rsplit(".", 1)
        source = (
            f"from {module} import {attr}\n"
            "async def step(arg):\n"
            f"    {attr}(arg)\n"
        )
        (finding,) = lint_sources({"tcp.py": source}).findings
        assert finding.rule == "async-blocking"
        assert f"{qualified}()" in finding.message

    @pytest.mark.parametrize("name", sorted(BLOCKING_CALLEE_NAMES))
    def test_blocking_callee_name_as_bare_call_triggers(self, name):
        source = f"async def step(sock, data):\n    {name}(sock, data)\n"
        (finding,) = lint_sources({"serve.py": source}).findings
        assert finding.rule == "async-blocking"
        assert f"{name}()" in finding.message

    @pytest.mark.parametrize("name", sorted(BLOCKING_CALLEE_NAMES))
    def test_blocking_callee_name_as_method_triggers(self, name):
        source = f"async def step(self, data):\n    self.peer.{name}(data)\n"
        assert rules_hit({"serve.py": source}) == ["async-blocking"]

    def test_message_names_the_coroutine(self):
        source = (
            "import time\n"
            "async def drain_peers(self):\n"
            "    time.sleep(1)\n"
        )
        (finding,) = lint_sources({"tcp.py": source}).findings
        assert "async def drain_peers" in finding.message

    def test_blocking_call_nested_in_an_expression_triggers(self):
        source = (
            "import subprocess\n"
            "async def probe(cmd):\n"
            "    if subprocess.call(cmd) != 0:\n"
            "        return None\n"
        )
        (finding,) = lint_sources({"ops.py": source}).findings
        assert (finding.rule, finding.line) == ("async-blocking", 3)

    def test_async_def_nested_in_sync_def_triggers(self):
        source = (
            "import time\n"
            "def make():\n"
            "    async def tick():\n"
            "        time.sleep(1)\n"
            "    return tick\n"
        )
        (finding,) = lint_sources({"tcp.py": source}).findings
        assert "async def tick" in finding.message

    def test_inner_coroutine_is_reported_once_under_its_own_name(self):
        source = (
            "import time\n"
            "async def outer():\n"
            "    async def inner():\n"
            "        time.sleep(1)\n"
            "    await inner()\n"
        )
        (finding,) = lint_sources({"tcp.py": source}).findings
        assert "async def inner" in finding.message

    def test_blocking_callable_passed_off_loop_is_clean(self):
        # A reference handed to an executor is not a call on the loop.
        source = (
            "import asyncio\n"
            "import time\n"
            "async def nap(loop):\n"
            "    await asyncio.to_thread(time.sleep, 1)\n"
            "    await loop.run_in_executor(None, time.sleep, 1)\n"
        )
        assert rules_hit({"tcp.py": source}) == []

    def test_asyncio_sleep_imported_bare_is_clean(self):
        source = (
            "from asyncio import sleep\n"
            "async def pump():\n"
            "    await sleep(0.1)\n"
        )
        assert rules_hit({"tcp.py": source}) == []

    def test_unrelated_sleep_method_is_clean(self):
        # ``self.clock.sleep`` does not resolve to ``time.sleep``.
        source = (
            "async def pump(self):\n"
            "    await self.clock.sleep(0.1)\n"
            "    self.writer.write(b'x')\n"
        )
        assert rules_hit({"tcp.py": source}) == []

    def test_blocking_call_in_nested_class_body_is_clean(self):
        source = (
            "import time\n"
            "async def build():\n"
            "    class Slow:\n"
            "        def wait(self):\n"
            "            time.sleep(1)\n"
            "    return Slow\n"
        )
        assert rules_hit({"tcp.py": source}) == []

    def test_module_level_blocking_call_is_clean(self):
        assert rules_hit({"tcp.py": "import time\ntime.sleep(0)\n"}) == []


class TestBroadExcept:
    def test_silent_swallow_triggers(self):
        source = (
            "def close(self):\n"
            "    try:\n"
            "        self.sock.close()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert rules_hit({"mod.py": source}) == ["broad-except"]

    def test_bare_except_triggers(self):
        source = (
            "def close(self):\n"
            "    try:\n"
            "        self.sock.close()\n"
            "    except:\n"
            "        self.count = 0\n"
        )
        assert rules_hit({"mod.py": source}) == ["broad-except"]

    def test_broad_member_of_tuple_triggers(self):
        source = (
            "def close(self):\n"
            "    try:\n"
            "        self.sock.close()\n"
            "    except (ValueError, Exception):\n"
            "        pass\n"
        )
        assert rules_hit({"mod.py": source}) == ["broad-except"]

    def test_narrow_handler_is_clean(self):
        source = (
            "def close(self):\n"
            "    try:\n"
            "        self.sock.close()\n"
            "    except OSError:\n"
            "        pass\n"
        )
        assert rules_hit({"mod.py": source}) == []

    def test_reraise_is_clean(self):
        source = (
            "def run(self):\n"
            "    try:\n"
            "        self.step()\n"
            "    except Exception:\n"
            "        self.failed = True\n"
            "        raise\n"
        )
        assert rules_hit({"mod.py": source}) == []

    def test_using_the_bound_exception_is_clean(self):
        source = (
            "def run(self):\n"
            "    try:\n"
            "        self.step()\n"
            "    except Exception as exc:\n"
            "        self.last_error = repr(exc)\n"
        )
        assert rules_hit({"mod.py": source}) == []

    def test_recording_via_trace_or_warnings_is_clean(self):
        source = (
            "import warnings\n"
            "def run(self):\n"
            "    try:\n"
            "        self.step()\n"
            "    except Exception:\n"
            "        self.tracer.emit('error')\n"
            "    try:\n"
            "        self.step()\n"
            "    except Exception:\n"
            "        warnings.warn('step failed', ResourceWarning)\n"
        )
        assert rules_hit({"mod.py": source}) == []


class TestCorpusSanity:
    def test_every_rule_has_trigger_and_near_miss_coverage(self):
        # The corpus above must exercise the full registered rule set;
        # a new rule without golden tests fails here by construction.
        covered = {
            "det-rng",
            "det-clock",
            "event-registry",
            "async-blocking",
            "broad-except",
        }
        assert {rule.id for rule in ALL_RULES()} == covered

    def test_rule_messages_parse_as_single_findings(self):
        # Triggers must not cascade: one seeded defect, one finding.
        result = lint_sources(
            {"anywhere.py": "import random\nx = random.random()\n"}
        )
        assert len(result.findings) == 1

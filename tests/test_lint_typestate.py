"""Golden corpus for ``resource-typestate``: triggers and near-misses.

Same contract as ``test_lint_rules.py`` — the near-misses are the real
specification: they pin exactly where the CFG analysis gives up
(``with`` blocks, ownership transfers, release-only helpers,
loop-carried acquires).  Snippets use a ``repro/serve/...`` virtual
path, outside the deterministic core.
"""

import pytest

from repro.lint import ALL_RULES, run_rules
from repro.lint.engine import Project, load_module


def lint_sources(sources):
    project = Project(
        modules=[load_module(path, text) for path, text in sources.items()]
    )
    return run_rules(project, ALL_RULES())


def rules_hit(sources):
    return sorted({f.rule for f in lint_sources(sources).findings})


def findings_for(sources, rule):
    return [f for f in lint_sources(sources).findings if f.rule == rule]


class TestResourceTypestate:
    def test_exception_path_leak_triggers(self):
        # close() exists on the happy path, but step() raising strands
        # the handle — exactly the shape the CFG raise edges catch.
        source = (
            "def copy(step):\n"
            "    handle = open('wal.log')\n"
            "    step(handle)\n"
            "    handle.close()\n"
        )
        (finding,) = findings_for({"repro/serve/app.py": source}, "resource-typestate")
        assert finding.line == 2
        assert "'handle'" in finding.message
        assert "exception path" in finding.message

    def test_finally_clean_is_clean(self):
        source = (
            "def copy(step):\n"
            "    handle = open('wal.log')\n"
            "    try:\n"
            "        step(handle)\n"
            "    finally:\n"
            "        handle.close()\n"
        )
        assert rules_hit({"repro/serve/app.py": source}) == []

    def test_with_block_is_exempt(self):
        source = (
            "def copy(step):\n"
            "    with open('wal.log') as handle:\n"
            "        step(handle)\n"
        )
        assert rules_hit({"repro/serve/app.py": source}) == []

    def test_ownership_transfer_is_exempt(self):
        # Acquire-and-stash: the close obligation moved to the object;
        # the precondition (acquire AND release here) fails, silence.
        source = (
            "class Holder:\n"
            "    def open_log(self):\n"
            "        self.handle = open('wal.log')\n"
        )
        assert rules_hit({"repro/serve/app.py": source}) == []

    def test_escape_into_collection_kills_tracking(self):
        source = (
            "def pool(step, handles):\n"
            "    handle = open('wal.log')\n"
            "    handles.append(handle)\n"
            "    other = open('other.log')\n"
            "    step(other)\n"
            "    other.close()\n"
        )
        # 'handle' escaped into the pool (exempt); 'other' still leaks.
        (finding,) = findings_for({"repro/serve/app.py": source}, "resource-typestate")
        assert "'other'" in finding.message

    def test_release_only_helper_is_exempt(self):
        source = (
            "def release(self):\n"
            "    self.handle.close()\n"
        )
        assert rules_hit({"repro/serve/app.py": source}) == []

    def test_flock_leak_on_exception_triggers(self):
        source = (
            "import fcntl\n"
            "def guard(handle, step):\n"
            "    fcntl.flock(handle, fcntl.LOCK_EX)\n"
            "    step()\n"
            "    fcntl.flock(handle, fcntl.LOCK_UN)\n"
        )
        (finding,) = findings_for({"repro/serve/app.py": source}, "resource-typestate")
        assert "flock" in finding.message
        assert "LOCK_UN" in finding.message

    def test_flock_in_finally_is_clean(self):
        source = (
            "import fcntl\n"
            "def guard(handle, step):\n"
            "    fcntl.flock(handle, fcntl.LOCK_EX)\n"
            "    try:\n"
            "        step()\n"
            "    finally:\n"
            "        fcntl.flock(handle, fcntl.LOCK_UN)\n"
        )
        assert rules_hit({"repro/serve/app.py": source}) == []

    def test_fence_unfence_pairing(self):
        source = (
            "def quiesce(self, step):\n"
            "    self.bus.fence(self.epoch)\n"
            "    step()\n"
            "    self.bus.unfence(self.epoch)\n"
        )
        (finding,) = findings_for({"repro/serve/app.py": source}, "resource-typestate")
        assert "unfence" in finding.message

    def test_fence_in_finally_is_clean(self):
        source = (
            "def quiesce(self, step):\n"
            "    self.bus.fence(self.epoch)\n"
            "    try:\n"
            "        step()\n"
            "    finally:\n"
            "        self.bus.unfence(self.epoch)\n"
        )
        assert rules_hit({"repro/serve/app.py": source}) == []

    def test_loop_carried_acquire_is_exempt(self):
        source = (
            "def rotate(paths, step):\n"
            "    for path in paths:\n"
            "        handle = open(path)\n"
            "        step(handle)\n"
            "        handle.close()\n"
        )
        assert rules_hit({"repro/serve/app.py": source}) == []

    @pytest.mark.parametrize(
        "imports, acquire",
        [
            ("import socket\n", "socket.socket()"),
            ("import socket\n", "socket.create_connection(addr)"),
            ("", "FileTraceSink(addr)"),
            ("from repro.obs import trace\n", "trace.Tracer(addr)"),
            ("", "addr.open()"),
        ],
    )
    def test_every_owned_resource_kind_is_tracked(self, imports, acquire):
        source = imports + (
            "def use(addr, step):\n"
            f"    handle = {acquire}\n"
            "    step(handle)\n"
            "    handle.close()\n"
        )
        (finding,) = findings_for({"repro/serve/app.py": source}, "resource-typestate")
        assert "'handle'" in finding.message

    def test_close_on_one_branch_leaks_on_normal_exit(self):
        source = (
            "def maybe(path, keep):\n"
            "    handle = open(path)\n"
            "    if keep:\n"
            "        return None\n"
            "    handle.close()\n"
        )
        (finding,) = findings_for({"repro/serve/app.py": source}, "resource-typestate")
        assert "normal exit path" in finding.message

    def test_returned_handle_is_ownership_transfer(self):
        source = (
            "def maybe(path, keep):\n"
            "    handle = open(path)\n"
            "    if keep:\n"
            "        return handle\n"
            "    handle.close()\n"
        )
        assert rules_hit({"repro/serve/app.py": source}) == []

    def test_handle_captured_by_closure_is_exempt(self):
        source = (
            "def defer(path, later):\n"
            "    handle = open(path)\n"
            "    def done():\n"
            "        handle.close()\n"
            "    later(done)\n"
        )
        assert rules_hit({"repro/serve/app.py": source}) == []

    def test_handle_passed_to_constructor_is_exempt(self):
        source = (
            "def wrap(path, step):\n"
            "    handle = open(path)\n"
            "    reader = Reader(handle)\n"
            "    step(reader)\n"
            "    handle.close()\n"
        )
        assert rules_hit({"repro/serve/app.py": source}) == []

    def test_shared_lock_and_lockf_are_tracked(self):
        source = (
            "import fcntl\n"
            "def guard(a, b, step):\n"
            "    fcntl.flock(a, fcntl.LOCK_SH)\n"
            "    fcntl.lockf(b, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
            "    step()\n"
            "    fcntl.lockf(b, fcntl.LOCK_UN)\n"
            "    fcntl.flock(a, fcntl.LOCK_UN)\n"
        )
        findings = findings_for({"repro/serve/app.py": source}, "resource-typestate")
        assert sorted(f.line for f in findings) == [3, 4]

    def test_from_imported_flock_and_flags_are_tracked(self):
        source = (
            "from fcntl import LOCK_EX, LOCK_UN, flock\n"
            "def guard(handle, step):\n"
            "    flock(handle, LOCK_EX)\n"
            "    step()\n"
            "    flock(handle, LOCK_UN)\n"
        )
        (finding,) = findings_for({"repro/serve/app.py": source}, "resource-typestate")
        assert finding.line == 3

    def test_fence_pairs_by_receiver_and_arguments(self):
        # Only fence(self.b) is released in the finally; fence(self.a)
        # is stranded if step() raises.
        source = (
            "def quiesce(self, step):\n"
            "    self.bus.fence(self.a)\n"
            "    self.bus.fence(self.b)\n"
            "    try:\n"
            "        step()\n"
            "    finally:\n"
            "        self.bus.unfence(self.b)\n"
            "    self.bus.unfence(self.a)\n"
        )
        (finding,) = findings_for({"repro/serve/app.py": source}, "resource-typestate")
        assert finding.line == 2
        assert "self.bus(self.a)" in finding.message

    def test_leak_in_coroutine_triggers(self):
        source = (
            "async def copy(step):\n"
            "    handle = open('wal.log')\n"
            "    await step(handle)\n"
            "    handle.close()\n"
        )
        (finding,) = findings_for({"repro/serve/app.py": source}, "resource-typestate")
        assert finding.line == 2

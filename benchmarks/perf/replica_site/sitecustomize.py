"""Loaded by replica processes of a *traced* ``serve-*`` run only.

The traced run prepends this directory (and ``benchmarks/perf``) to the
``PYTHONPATH`` its ``ProcessCluster`` children inherit, so the
interpreter imports this module at start-up.  It installs the
benchmark's span table on the replica's ``repro`` modules and, at exit,
dumps the aggregates and recorded spans into the directory named by
``REPRO_PERF_SPAN_DIR`` for the driver to merge.  Without that variable
it does nothing, so an untraced process that happens to see this path is
unaffected.
"""

import atexit
import os
import sys


def _install() -> None:
    span_dir = os.environ.get("REPRO_PERF_SPAN_DIR")
    # Only replica processes are traced from here; the driver process
    # installs its own tracer.
    if not span_dir or "serve-replica" not in sys.argv:
        return
    import tracer as tracing

    # The controller gives a replica five seconds to exit before it
    # kills it, so the dump has to stay small.
    active = tracing.LayerTracer(record_limit=20_000)
    active.install()

    def dump() -> None:
        import json

        active.uninstall()
        path = os.path.join(span_dir, f"replica-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "pid": os.getpid(),
                    "aggregate": active.aggregate(),
                    "spans_seen": active.spans_seen,
                    "spans": list(active.spans()),
                },
                handle,
                separators=(",", ":"),
            )
        os.replace(path + ".tmp", path)

    atexit.register(dump)


_install()

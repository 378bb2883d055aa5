"""Outside-in layer tracing of ``src/repro`` for the perf benchmark.

The benchmark may not edit the program it measures, so the per-layer
numbers are taken from outside: :data:`SPAN_TABLE` declares which public
callables of ``repro`` form the boundary of which layer, and
:class:`LayerTracer` patches a timing wrapper onto each of them for the
duration of one traced run, restoring the originals afterwards.

A *span* is one clocked call: name, start, end and the span that caused
it.  A layer's **self time** is its spans' duration minus the part of
that interval their child spans cover, so the self times of all spans
sum to exactly the time covered by top-level spans, and
``wall - sum(self) = residual`` is stated rather than hidden.

A wrapper clocks a call only when control enters its layer from a
*different* layer.  Re-entering the layer already on top of the stack
(``MapLattice.join`` joining its values, ``encode_message`` calling
``frame_message``) is a pass-through costing one comparison, which is
what keeps recursive lattice code from drowning in its own
instrumentation.

Replica processes of the ``serve-*`` workloads load the same table
through ``replica_site/sitecustomize.py`` and dump their aggregates and
spans at exit for the driver to merge.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Spans kept in memory (and written out) per process; beyond it only
#: the aggregates keep counting.  Bounds a traced 100k-key run to a few
#: tens of MB instead of gigabytes.
SPAN_RECORD_LIMIT = 200_000

#: Environment variable naming the directory replica processes dump to.
SPAN_DIR_ENV = "REPRO_PERF_SPAN_DIR"


@dataclass(frozen=True)
class SpanDecl:
    """One row of the declared table: a callable and the span it opens.

    Attributes:
        target: ``module:qualname`` of a module-level function or of a
            method (``module:Class.method``).
        span: The span name; yields ``<span>.calls`` / ``<span>.self_s``.
        layer: Calls are clocked only when entering this layer from a
            different one.
        nbytes: How the span counts bytes — ``"result"`` (``len`` of the
            return value), ``"frame"`` (``len(result.data)``), or
            ``"arg:N"`` (``len`` of positional argument ``N``, counting
            ``self``); ``None`` for spans that carry none.
        subclasses: Also patch every loaded ``repro`` subclass that
            overrides the method (abstract base methods are skipped).
    """

    target: str
    span: str
    layer: str
    nbytes: Optional[str] = None
    subclasses: bool = False


def _rows(layer: str, nbytes: Optional[str], subclasses: bool, *pairs: Tuple[str, str]):
    return tuple(SpanDecl(t, s, layer, nbytes, subclasses) for t, s in pairs)


#: module:qualname → span name.  Ordered outermost layer last; explicit
#: rows win over ``subclasses`` expansion (``KVStore`` is a
#: ``Synchronizer`` but belongs to ``kv.store``).
SPAN_TABLE: Tuple[SpanDecl, ...] = (
    # lattice: join / optimal delta / decomposition / size accounting.
    *_rows(
        "lattice", None, True,
        ("repro.lattice.base:Lattice.join", "lattice.join"),
        ("repro.lattice.base:Lattice.delta", "lattice.delta"),
        ("repro.lattice.base:Lattice.decompose", "lattice.decompose"),
        ("repro.lattice.base:Lattice.size_units", "lattice.size"),
        ("repro.lattice.base:Lattice.size_bytes", "lattice.size"),
    ),
    SpanDecl("repro.kv.types:TypeSpec.apply", "kv.types.apply", "kv.types"),
    # sync: the inner synchronizers (Algorithm 1 and baselines).
    *_rows(
        "sync", None, True,
        ("repro.sync.protocol:Synchronizer.local_update", "sync.local_update"),
        ("repro.sync.protocol:Synchronizer.sync_messages", "sync.sync_messages"),
        ("repro.sync.protocol:Synchronizer.handle_message", "sync.handle_message"),
        ("repro.sync.protocol:Synchronizer.absorb_state", "sync.absorb_state"),
    ),
    # digests and the anti-entropy scheduler.
    *_rows(
        "sync.digest", None, False,
        ("repro.sync.digest:IncrementalDigest.root", "sync.digest.root"),
        ("repro.sync.digest:root_of", "sync.digest.root"),
        ("repro.sync.digest:IncrementalDigest.digest", "sync.digest.diff"),
        ("repro.sync.digest:digest_of", "sync.digest.diff"),
        ("repro.sync.digest:digest_and_missing", "sync.digest.diff"),
        ("repro.sync.digest:delta_against_digest", "sync.digest.diff"),
    ),
    SpanDecl(
        "repro.kv.antientropy:AntiEntropyScheduler.plan",
        "kv.antientropy.plan",
        "kv.antientropy",
    ),
    # kv: the sharded store and placement.
    *_rows(
        "kv.store", None, False,
        ("repro.kv.store:KVStore.local_update", "kv.store.local_update"),
        ("repro.kv.store:KVStore.sync_messages", "kv.store.sync_messages"),
        ("repro.kv.store:KVStore.handle_message", "kv.store.handle_message"),
        ("repro.kv.store:KVStore.absorb_client_state", "kv.store.absorb_client_state"),
        ("repro.kv.store:KVStore.get", "kv.store.get"),
        ("repro.kv.store:KVStore.value_lattice", "kv.store.get"),
        ("repro.kv.store:KVStore.replay_wal", "kv.store.replay_wal"),
    ),
    SpanDecl("repro.kv.ring:HashRing.owners", "kv.ring.owners", "kv.ring"),
    # codec: lattice values and message envelopes.
    SpanDecl("repro.codec:encode", "codec.encode", "codec", "result"),
    SpanDecl("repro.codec:decode", "codec.decode", "codec", "arg:0"),
    SpanDecl("repro.codec:frame_message", "codec.encode_message", "codec", "frame"),
    SpanDecl("repro.codec:encode_message", "codec.encode_message", "codec", "result"),
    SpanDecl("repro.codec:decode_message", "codec.decode_message", "codec", "arg:0"),
    # wal: staged appends, group commit, compaction, replay, storage.
    SpanDecl("repro.wal.log:ReplicaWal.append", "wal.append", "wal.append"),
    SpanDecl("repro.wal.log:ReplicaWal.commit", "wal.commit", "wal.commit"),
    SpanDecl("repro.wal.log:ShardLog.commit", "wal.commit", "wal.commit"),
    SpanDecl("repro.wal.log:ReplicaWal.compact", "wal.compact", "wal.compact"),
    SpanDecl("repro.wal.log:ShardLog.compact", "wal.compact", "wal.compact"),
    SpanDecl("repro.wal.log:ReplicaWal.replay", "wal.replay", "wal.replay"),
    SpanDecl("repro.wal.log:ShardLog.replay", "wal.replay", "wal.replay"),
    *_rows(
        "wal.storage", "arg:2", True,
        ("repro.wal.storage:Storage.append", "wal.storage.write"),
        ("repro.wal.storage:Storage.replace", "wal.storage.write"),
    ),
    # net: the replica runtime and the two transports under test.
    SpanDecl("repro.net.runtime:ReplicaRuntime.tick", "net.runtime.tick", "net.runtime"),
    SpanDecl("repro.net.runtime:ReplicaRuntime.deliver", "net.runtime.deliver", "net.runtime"),
    SpanDecl("repro.net.transport:Transport.sample_memory", "net.sample_memory", "net.sample"),
    SpanDecl("repro.net.sim:SimTransport.run_round", "net.sim.run_round", "net.sim"),
    SpanDecl("repro.net.tcp:AsyncTcpTransport.run_round", "net.tcp.run_round", "net.tcp"),
    SpanDecl("repro.net.tcp:AsyncTcpTransport.send", "net.tcp.send", "net.tcp"),
    # serve: client, frames, controller.
    SpanDecl("repro.serve.client:KVClient.put", "serve.client.put", "serve.client"),
    SpanDecl("repro.serve.client:KVClient.get", "serve.client.get", "serve.client"),
    SpanDecl("repro.serve.client:KVClient.get_lattice", "serve.client.get", "serve.client"),
    SpanDecl("repro.serve.cluster:ControlClient.request", "serve.client.rtt", "serve.rtt"),
    SpanDecl("repro.serve.frames:encode_request", "serve.frames.encode", "serve.frames", "result"),
    SpanDecl("repro.serve.frames:encode_response", "serve.frames.encode", "serve.frames", "result"),
    SpanDecl("repro.serve.frames:decode_request", "serve.frames.decode", "serve.frames", "arg:0"),
    SpanDecl("repro.serve.frames:decode_response", "serve.frames.decode", "serve.frames", "arg:0"),
    SpanDecl(
        "repro.serve.cluster:ProcessCluster.run_round",
        "serve.cluster.run_round",
        "serve.cluster",
    ),
    # workloads: schedule generation (set-up cost).
    *_rows(
        "workloads", None, False,
        ("repro.workloads.kv:KVZipfWorkload.__init__", "workloads.generate"),
        ("repro.workloads.zipf:ZipfSampler.__init__", "workloads.generate"),
        ("repro.serve.loadgen:LoadGenerator.__init__", "workloads.generate"),
        ("repro.workloads.micro:GMapWorkload.__init__", "workloads.generate"),
    ),
)

#: Modules that hold references to the table's callables but are not
#: named in it; imported before patching so their ``from x import f``
#: bindings are rebound too.
_EXTRA_MODULES = (
    "repro",
    "repro.kv.cluster",
    "repro.serve.replica",
    "repro.serve.loadgen",
    "repro.sim.runner",
    "repro.causal",
    "repro.crdt",
)


def span_names(table: Iterable[SpanDecl] = SPAN_TABLE) -> List[str]:
    """Distinct span names of ``table``, in declaration order."""
    seen: Dict[str, None] = {}
    for decl in table:
        seen.setdefault(decl.span)
    return list(seen)


def byte_spans(table: Iterable[SpanDecl] = SPAN_TABLE) -> List[str]:
    """Span names that carry a byte count."""
    seen: Dict[str, None] = {}
    for decl in table:
        if decl.nbytes is not None:
            seen.setdefault(decl.span)
    return list(seen)


def _byte_counter(spec: Optional[str]) -> Optional[Callable[[Any, tuple], int]]:
    if spec is None:
        return None
    if spec == "result":
        return lambda result, args: len(result)
    if spec == "frame":
        return lambda result, args: len(result.data)
    if spec.startswith("arg:"):
        index = int(spec[4:])
        return lambda result, args: len(args[index]) if len(args) > index else 0
    raise ValueError(f"unknown byte spec {spec!r}")


class LayerTracer:
    """Patch :data:`SPAN_TABLE` onto ``repro`` and aggregate the spans.

    Use as a context manager (or :meth:`install` / :meth:`uninstall`);
    patched attributes are restored identity-equal on exit, exception
    or not.  Single-threaded by design, like the program it measures.
    """

    def __init__(
        self,
        table: Iterable[SpanDecl] = SPAN_TABLE,
        *,
        record_limit: int = SPAN_RECORD_LIMIT,
        clock: Callable[[], float] = time.perf_counter,
        namespace: str = "repro",
        extra_modules: Iterable[str] = _EXTRA_MODULES,
    ) -> None:
        self.table = tuple(table)
        #: Only modules under this prefix are searched for references
        #: and subclasses to patch.
        self.namespace = namespace
        self.extra_modules = tuple(extra_modules)
        self.record_limit = record_limit
        self._clock = clock
        self.names: List[str] = span_names(self.table)
        self._span_ids = {name: index for index, name in enumerate(self.names)}
        layers = sorted({decl.layer for decl in self.table})
        self._layer_ids = {name: index for index, name in enumerate(layers)}
        count = len(self.names)
        self.calls = [0] * count
        self.self_s = [0.0] * count
        self.nbytes = [0] * count
        #: Frames are ``[layer id, seconds covered by children, span index]``;
        #: the sentinel at the bottom collects top-level coverage.
        self._stack: List[list] = [[-1, 0.0, -1]]
        self.spans_seen = 0
        self._rec_name = array("H")
        self._rec_parent = array("l")
        self._rec_start = array("d")
        self._rec_end = array("d")
        self._patched: List[Tuple[Any, str, Any]] = []
        self.installed = False

    # ------------------------------------------------------------------
    # Patching.
    # ------------------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        self.installed = True
        try:
            for name in self.extra_modules:
                self._import(name)
            explicit = {decl.target for decl in self.table}
            for decl in self.table:
                self._patch(decl, explicit)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)
        self.installed = False

    @staticmethod
    def _import(name: str):
        try:
            return importlib.import_module(name)
        except ImportError:
            return None

    def _patch(self, decl: SpanDecl, explicit: set) -> None:
        module_name, _, qualname = decl.target.partition(":")
        module = self._import(module_name)
        if module is None:
            return
        parts = qualname.split(".")
        if len(parts) == 1:
            self._patch_function(module, parts[0], decl)
            return
        owner = getattr(module, parts[0])
        classes = [owner]
        if decl.subclasses:
            classes += _loaded_subclasses(owner, self.namespace)
        for cls in classes:
            if cls is not owner and _explicit_class(cls, explicit):
                continue
            original = cls.__dict__.get(parts[1])
            if not inspect.isfunction(original):
                continue
            if getattr(original, "__isabstractmethod__", False):
                continue
            self._set(cls, parts[1], original, self._wrap(original, decl))

    def _patch_function(self, module, name: str, decl: SpanDecl) -> None:
        original = module.__dict__.get(name)
        if not inspect.isfunction(original):
            return
        wrapper = self._wrap(original, decl)
        # ``from repro.codec import encode`` binds the function object
        # in the importing module: rebind every such reference too.
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith(self.namespace):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._set(other, attr, original, wrapper)

    def _set(self, holder, attr: str, original, wrapper) -> None:
        self._patched.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    # ------------------------------------------------------------------
    # The wrapper.
    # ------------------------------------------------------------------

    def _wrap(self, fn, decl: SpanDecl):
        span_id = self._span_ids[decl.span]
        layer_id = self._layer_ids[decl.layer]
        count_bytes = _byte_counter(decl.nbytes)
        # A generator's body runs while the caller iterates it, outside
        # any span around the call; materializing it inside the span
        # attributes the work to the layer that does it.
        materialize = inspect.isgeneratorfunction(fn)
        stack = self._stack
        clock = self._clock
        calls, self_s, nbytes = self.calls, self.self_s, self.nbytes
        open_span, close_span = self._open_record, self._close_record

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer_id:
                return fn(*args, **kwargs)
            frame = [layer_id, 0.0, open_span(span_id, parent[2])]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
                if count_bytes is not None:
                    nbytes[span_id] += count_bytes(result, args)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                calls[span_id] += 1
                self_s[span_id] += duration - frame[1]
                close_span(frame[2], start, end)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _open_record(self, span_id: int, parent_index: int) -> int:
        index = self.spans_seen
        self.spans_seen = index + 1
        if index >= self.record_limit:
            return -1
        self._rec_name.append(span_id)
        self._rec_parent.append(parent_index)
        self._rec_start.append(0.0)
        self._rec_end.append(0.0)
        return index

    def _close_record(self, index: int, start: float, end: float) -> None:
        if index >= 0:
            self._rec_start[index] = start
            self._rec_end[index] = end

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    @property
    def covered_s(self) -> float:
        """Seconds covered by top-level spans (= the sum of self times)."""
        return self._stack[0][1]

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """``span → {calls, self_s, bytes}`` for every declared span."""
        return {
            name: {
                "calls": self.calls[index],
                "self_s": self.self_s[index],
                "bytes": self.nbytes[index],
            }
            for index, name in enumerate(self.names)
        }

    def spans(self) -> Iterable[Dict[str, Any]]:
        """The recorded spans: index, name, start, end, parent index."""
        for index in range(len(self._rec_name)):
            yield {
                "i": index,
                "name": self.names[self._rec_name[index]],
                "start": self._rec_start[index],
                "end": self._rec_end[index],
                "parent": self._rec_parent[index],
            }

    def write_spans(
        self,
        path: str,
        *,
        origin: str = "driver",
        others: Iterable[Dict[str, Any]] = (),
    ) -> None:
        """Write the recorded spans as JSONL, closing with a summary line.

        ``others`` are spans of other processes (replicas), already
        carrying their own ``origin``; indices are per origin.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                span["origin"] = origin
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
            for span in others:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
            handle.write(
                json.dumps(
                    {
                        "summary": True,
                        "origin": origin,
                        "spans_seen": self.spans_seen,
                        "spans_recorded": len(self._rec_name),
                        "aggregate": self.aggregate(),
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


def _loaded_subclasses(owner: type, namespace: str) -> List[type]:
    """Every loaded subclass of ``owner`` under ``namespace``, parents first."""
    found: List[type] = []
    frontier = [owner]
    while frontier:
        cls = frontier.pop(0)
        for sub in cls.__subclasses__():
            if sub not in found and sub.__module__.startswith(namespace):
                found.append(sub)
                frontier.append(sub)
    return found


def _explicit_class(cls: type, explicit: set) -> bool:
    """True when some table row names ``cls`` itself (it has its own layer)."""
    prefix = f"{cls.__module__}:{cls.__name__}."
    return any(target.startswith(prefix) for target in explicit)


def merge_aggregates(parts: Iterable[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum per-span aggregates of several processes."""
    merged: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, stats in part.items():
            into = merged.setdefault(
                name, {"calls": 0, "self_s": 0.0, "bytes": 0}
            )
            for key in into:
                into[key] += stats.get(key, 0)
    return merged

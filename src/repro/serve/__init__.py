"""repro.serve — the multi-process serving layer.

The jump from harness to system: each replica of the sharded CRDT
store runs as its own OS process (:mod:`~repro.serve.replica`) hosting
the in-process :class:`~repro.net.runtime.ReplicaRuntime` and serving
two sockets — the in-process TCP transport's peer plane with this
replica as its one endpoint, and a client/control plane speaking
:mod:`~repro.serve.frames`.  A :class:`ProcessCluster` spawns, wires,
crashes (SIGKILL), and respawns those processes as the multi-process
backend of the cluster driver the in-process harness shares
(:class:`repro.kv.driver.KVDriver`); :func:`~repro.serve.deploy.
build_cluster` maps a deployment to either backend; a :class:`KVClient`
is the quorum-aware front end (``r``/``w`` knobs, read repair); the
:class:`LoadGenerator` measures what clients actually see — latency
percentiles and session staleness.
"""

from repro.serve import frames
from repro.serve.client import KVClient, join_replies, stale_repliers
from repro.serve.cluster import (
    ControlClient,
    ProcessCluster,
    ReplicaDied,
    raise_for_status,
)
from repro.serve.frames import FrameError, Request, Response
from repro.serve.loadgen import LoadGenerator, LoadReport, percentile
from repro.serve.replica import (
    HOST,
    ReplicaOptions,
    ReplicaProcess,
    portfile_path,
)

__all__ = [
    "frames",
    "FrameError",
    "Request",
    "Response",
    "HOST",
    "ReplicaOptions",
    "ReplicaProcess",
    "portfile_path",
    "ControlClient",
    "ProcessCluster",
    "ReplicaDied",
    "raise_for_status",
    "KVClient",
    "join_replies",
    "stale_repliers",
    "LoadGenerator",
    "LoadReport",
    "percentile",
]

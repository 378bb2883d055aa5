"""From a :data:`~repro.driver.Deployment` value to a running cluster.

The one place that knows which backend a deployment means.  Everything
above it — the sweep, the fault replay, the rebalance replay — asks for
a cluster through :func:`build_cluster` and drives whatever comes back
through the shared :class:`~repro.kv.driver.KVDriver` surface, so the
same experiment lines run on the simulator, free-running, over
localhost TCP, and over replica processes.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.driver import Stepped
from repro.kv.antientropy import AntiEntropyConfig
from repro.kv.cluster import KVCluster
from repro.kv.driver import KV_ALGORITHMS, KVDriver
from repro.kv.ring import HashRing
from repro.obs.trace import FileTraceSink, Tracer
from repro.serve.cluster import ProcessCluster
from repro.sim.network import ClusterConfig
from repro.sim.topology import full_mesh

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.kv_sweep import KVConfig


def open_tracer(config: "KVConfig") -> Optional[Tracer]:
    """The run-wide tracer the cells of an in-process run share.

    ``None`` when tracing is off — and for process clusters, which
    cannot share one JSONL sink: each cell gets its own subdirectory of
    ``config.trace`` holding one file per replica process plus the
    controller's (cell markers included), merged at read time by
    :func:`repro.obs.read_trace_dir`.
    """
    if config.trace is None or config.deployment is Stepped.PROC:
        return None
    return Tracer(FileTraceSink(config.trace))


def build_cluster(
    config: "KVConfig",
    algorithm: str,
    *,
    ring: Optional[HashRing] = None,
    antientropy: Optional[AntiEntropyConfig] = None,
    recovery: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    label: Optional[str] = None,
) -> KVDriver:
    """One cell's cluster on ``config.deployment``.

    ``ring`` defaults to the config's full ring (a smaller one leaves
    seats ``len(ring.replicas)..config.replicas-1`` spare for a later
    ``add_replica``); ``antientropy`` / ``recovery`` override the
    config's own (the fault replay derives them per strategy row).
    ``tracer`` is the shared in-process tracer from :func:`open_tracer`;
    ``label`` names the cell's trace subdirectory on process clusters
    (render one with ``repro trace report <trace>/<label>``).  Cell
    markers go through ``cluster.tracer`` either way.
    """
    ring = ring if ring is not None else config.ring()
    antientropy = antientropy if antientropy is not None else config.antientropy()
    recovery = recovery if recovery is not None else config.recovery
    if config.deployment is Stepped.PROC:
        return ProcessCluster(
            len(ring.replicas),
            shards=ring.n_shards,
            replication=ring.replication,
            algorithm=algorithm,
            antientropy=antientropy,
            recovery=recovery,
            trace_dir=(
                os.path.join(config.trace, label or algorithm)
                if config.trace is not None
                else None
            ),
        )
    return KVCluster(
        ring,
        KV_ALGORITHMS[algorithm],
        config=ClusterConfig(full_mesh(config.replicas)),
        antientropy=antientropy,
        transport=config.deployment,
        recovery=recovery,
        trace=tracer,
    )

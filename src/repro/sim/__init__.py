"""Discrete-event network simulator substrate.

The paper evaluates the synchronization algorithms on a Kubernetes
cluster deployed in Emulab (Section V-A).  This package substitutes a
deterministic discrete-event simulator that drives the very same
algorithm code with the same message and timer events a real deployment
would, and measures the same quantities the paper measures:

* transmission — payload in the paper's unit metric (set elements / map
  entries) and in bytes, with protocol metadata accounted separately;
* memory — replica state plus synchronization metadata, sampled over
  time;
* processing — wall-clock CPU time per algorithm callback plus a
  deterministic element-count proxy that is machine-independent.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.topology import Topology, full_mesh, line, partial_mesh, ring, star, tree
from repro.sim.metrics import MetricsCollector, NodeMetrics
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.runner import ExperimentResult, run_experiment

__all__ = [
    "Event",
    "EventQueue",
    "Topology",
    "partial_mesh",
    "tree",
    "ring",
    "line",
    "star",
    "full_mesh",
    "MetricsCollector",
    "NodeMetrics",
    "Cluster",
    "ClusterConfig",
    "ExperimentResult",
    "run_experiment",
]

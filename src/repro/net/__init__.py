"""Transport-abstracted replica runtime.

The paper's protocols are defined over an abstract "ship these messages
to neighbours" step; :mod:`repro.net` is that step made explicit as an
API seam.  It splits what used to be fused inside the simulated cluster
into three layers:

* :class:`~repro.net.runtime.ReplicaRuntime` — one replica's event
  loop: it owns one :class:`~repro.sync.protocol.Synchronizer` and
  drives ``local_update`` / ``sync_messages`` / ``handle_message``
  identically over any transport, recording the processing costs the
  paper measures;
* :class:`~repro.net.transport.Transport` — the delivery substrate:
  outbound sends, the delivery callback into the runtimes, the round
  clock, peer addressing over a topology, and the loss/fault hooks
  (crash, partition, message loss) the recovery experiments exercise;
* three implementations — :class:`~repro.net.sim.SimTransport`, the
  deterministic discrete-event engine the paper's figures are
  regenerated on (bit-for-bit the pre-seam simulator);
  :class:`~repro.net.freerun.FreeRunTransport`, the same engine under
  free-running drifting per-replica timers with no per-round
  quiescence barrier (convergence lag becomes a measurement); and
  :class:`~repro.net.tcp.AsyncTcpTransport`, real localhost TCP
  sockets over :mod:`asyncio` with the length-prefixed envelope codec
  of :func:`repro.codec.encode_message`, where ``payload_bytes`` and
  ``metadata_bytes`` are *measured wire bytes* rather than size-model
  estimates.

When a replica's timers fire is a pluggable *step policy*
(:mod:`repro.net.clock`): :class:`~repro.net.clock.RoundStepClock`
reproduces the barrier-stepped round timeline bit-identically, and
:class:`~repro.net.clock.DriftClock` models free-running oscillators
with per-replica phase and skew.

``repro.sim.network.Cluster`` (and therefore ``repro.kv.KVCluster``)
is these layers assembled — one runtime per node on one transport,
stepped and drained by the shared :class:`repro.driver.ClusterDriver` —
and ``transport="tcp"`` runs any synchronizer over real sockets.  The
length-prefixed framing every socket speaks is :mod:`repro.net.framing`.
"""

# Import order matters: runtime only type-checks against the transport
# modules, so importing it first lets the repro.sim / repro.kv import
# chains it triggers finish before repro.net.transport begins
# initializing (repro.kv.cluster imports Transport from it).
from repro.net.runtime import ReplicaRuntime
from repro.net.clock import DriftClock, RoundStepClock, TickClock
from repro.net.freerun import FreeRunTransport
from repro.net.sim import SimTransport
from repro.net.tcp import AsyncTcpTransport
from repro.net.transport import Transport, TransportStalled

__all__ = [
    "AsyncTcpTransport",
    "DriftClock",
    "FreeRunTransport",
    "ReplicaRuntime",
    "RoundStepClock",
    "SimTransport",
    "TickClock",
    "Transport",
    "TransportStalled",
]

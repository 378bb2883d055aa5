"""What every cluster harness shares, defined once.

The paper's evaluation is only meaningful because every algorithm runs
on the *identical* harness, so the pieces of that harness that do not
depend on where the replicas live are written exactly once, here:

* :class:`Deployment` — where replicas run and what steps them, as a
  closed value: ``Stepped.SIM | FreeRun(jitter, seed) | Stepped.TCP |
  Stepped.PROC``.  An illegal combination (free-running timers over a
  transport that settles every round) has no spelling.
* :class:`ClusterDriver` — stepping update rounds and draining to
  convergence.  :class:`repro.sim.network.Cluster` (one object per
  node), :class:`repro.kv.cluster.KVCluster` and
  :class:`repro.serve.cluster.ProcessCluster` all inherit this one loop.
* :func:`partition_groups` — normalising ``partition(*groups)``
  arguments, shared by the in-process transports and the process
  controller.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Tuple, Union


class Stepped(enum.Enum):
    """Barrier-stepped deployments: every round settles to quiescence.

    ``SIM`` is the deterministic discrete-event simulator (size-model
    bytes), ``TCP`` localhost asyncio sockets in one process (measured
    wire bytes), ``PROC`` one OS process per replica behind the control
    plane (same wire format as ``TCP``, plus advisory-locked WAL
    directories and SIGKILL crashes).
    """

    SIM = "sim"
    TCP = "tcp"
    PROC = "proc"


@dataclass(frozen=True)
class FreeRun:
    """The simulator's event engine with the round barrier removed.

    Each replica syncs on its own drifting timer
    (:class:`~repro.net.clock.DriftClock`): ``jitter`` is the period
    skew as a fraction of the interval, ``seed`` draws each replica's
    phase and period.  Only the event engine can run free — the socket
    transports settle after every round, and replica processes have no
    timers of their own — which is why this is a separate variant and
    not a flag on :class:`Stepped`.
    """

    jitter: float = 0.05
    seed: int = 0


Deployment = Union[Stepped, FreeRun]


def deployment_from_flags(
    transport: str, execution: str = "rounds", tick_jitter: float = 0.05
) -> Deployment:
    """Map the CLI's ``--transport`` / ``--execution`` pair to a value.

    The only place a transport/execution combination can be wrong, and
    therefore the only place that raises a usage error for one.
    """
    if execution == "rounds":
        return Stepped(transport)
    if execution != "free":
        raise ValueError(f"unknown execution model {execution!r} (rounds | free)")
    if transport != "sim":
        raise ValueError(
            "free-running execution needs the deterministic event engine "
            f"and cannot run over --transport {transport}: the socket "
            "round loop settles after every round (exactly the barrier "
            "free-running removes) and replica processes have no timers "
            "of their own. Use --transport sim with --execution free."
        )
    return FreeRun(jitter=tick_jitter)


def describe(deployment: Deployment) -> str:
    """The report-header suffix naming a non-default deployment."""
    if isinstance(deployment, FreeRun):
        return (
            f", free-running (jitter {deployment.jitter:g}, "
            f"tick seed {deployment.seed})"
        )
    if deployment is Stepped.SIM:
        return ""
    return f", transport {deployment.value} (measured wire bytes)"


def partition_groups(
    groups: Iterable[Iterable[int]], members: Iterable[int]
) -> Tuple[frozenset, ...]:
    """Disjoint node groups covering ``members``.

    Nodes not named in any group form one implicit extra group, so
    ``partition([0, 1])`` isolates nodes 0-1 from everyone else.
    """
    everyone = frozenset(members)
    explicit = [frozenset(group) for group in groups]
    seen: frozenset = frozenset()
    for group in explicit:
        unknown = group - everyone
        if unknown:
            raise ValueError(f"no such nodes {sorted(unknown)}")
        if group & seen:
            raise ValueError("partition groups must be disjoint")
        seen |= group
    if everyone - seen:
        explicit.append(everyone - seen)
    return tuple(explicit)


class ClusterDriver:
    """Stepping and draining, over whatever a backend calls a round.

    A backend provides ``run_round(updates)``, ``converged()`` and
    ``max_drain_rounds``; one that moves shards between owners also
    overrides :meth:`pending_handoffs`.
    """

    def pending_handoffs(self) -> int:
        """Shard handoffs still in flight at live replicas."""
        return 0

    def run_rounds(
        self, rounds: int, updates_for: Callable[[int, int], Sequence]
    ) -> None:
        """Run ``rounds`` update rounds; ``updates_for(round, node)``."""
        for round_index in range(rounds):
            self.run_round(lambda node, r=round_index: updates_for(r, node))

    def drain(self) -> int:
        """Run sync-only rounds until converged *and* settled; return count.

        State convergence can precede protocol completion: digest
        repair may fill a gaining owner before its handoff segment
        ships, while the source still awaits the acknowledgement that
        lets it fence its log.  And a late segment can carry novelty
        the gaining owner drains rather than propagates, breaking the
        convergence an earlier round established — so the two
        conditions are re-checked together until both hold in the same
        round.

        Raises ``RuntimeError`` at the configured cap — that would
        indicate a protocol bug, and hiding it would corrupt every
        downstream measurement.
        """
        rounds = 0
        while self.pending_handoffs() or not self.converged():
            if rounds == self.max_drain_rounds:
                raise RuntimeError(
                    f"no convergence within {rounds} drain rounds "
                    f"({type(self).__name__}, {self.pending_handoffs()} "
                    "shard handoffs pending)"
                )
            self.run_round(None)
            rounds += 1
        return rounds

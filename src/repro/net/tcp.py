"""Real sockets: the asyncio localhost-TCP peer plane.

This module is the one socket peer plane of the repository: one accept
loop (:meth:`AsyncTcpTransport._accept` — handshake, then frames) and
one send sequence (:meth:`AsyncTcpTransport.send` — admit, frame,
account, trace, queue).  :class:`AsyncTcpTransport` runs it with n
endpoints in one private event loop; a replica process runs it with one
endpoint whose peers are other processes
(:class:`repro.serve.replica.PeerPlane`, which changes only where peers
come from, how queued frames are flushed, and what a dead connection
means).

Every replica gets a listening socket on ``127.0.0.1`` and one
outbound connection per overlay neighbour; protocol messages travel as
length-prefixed envelopes produced by :func:`repro.codec.
encode_message`, so the bytes recorded in the metrics are *measured
wire bytes* — the payload section's actual encoded length and the
envelope's actual framing — rather than the simulator's size-model
estimates.  ``payload_units``/``metadata_units`` still travel in the
envelope, which keeps the paper's machine-independent entry metric
exactly comparable between transports.

The transport preserves the round structure the paper's deployment
assumes (synchronize once per interval; deliveries and replies finish
well before the next interval): :meth:`run_round` applies the round's
workload updates, fires every live replica's synchronization timer
*before* any delivery happens — exactly like the simulator, where all
timers fire at the half-interval mark and latency is small — then runs
the event loop until the network is quiescent (every frame sent this
round, including protocol replies, has been processed or accounted as
lost).  Quiescence is tracked with an in-flight frame counter, so a
stalled peer surfaces as :class:`~repro.net.transport.
TransportStalled` instead of a hang.

Fault injection mirrors the simulator's fail-stop model without socket
churn: a crashed or partitioned peer refuses sends at the sender
(``send-blocked``, with ``note_send_blocked`` feeding suspicion
into divergence-driven repair).  Because faults are injected between
rounds and every round settles to quiescence, no frame can be caught
in flight by a fault here — ``message-severed`` stays 0 on TCP (its
delivery-side check is defensive), unlike the simulator, where
latency can carry a reply across a fault boundary.  ``loss_rate``
eats transmitted frames at the sender through the shared per-edge
coin flips: the k-th flip on an edge is a pure function of
``(loss_seed, src, dst, k)``, so the loss schedule depends only on
the traffic — repeated TCP runs, and the simulator against TCP, drop
the same frames even though the event loop chooses callback order.

Wire format per connection (:mod:`repro.net.framing`)::

    frame     := u32be(length) body
    body[0]   := uvarint(sender replica index)      # handshake, once
    body[1:]  := message envelope                   # repro.codec
"""

from __future__ import annotations

import asyncio
import functools
import time
import warnings
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.codec import decode_message, frame_message
from repro.net import framing
from repro.net.framing import LENGTH_PREFIX_BYTES
from repro.net.transport import Transport, TransportStalled
from repro.obs.trace import MESSAGE_SEVERED, ROUND
from repro.sim.metrics import MetricsCollector
from repro.sync.protocol import Send

#: Seconds a round may go without delivery progress before the settle
#: raises :class:`~repro.net.transport.TransportStalled`.  Read when a
#: round settles, so a test may patch it on the module.
SETTLE_TIMEOUT_S = 30.0


class AsyncTcpTransport(Transport):
    """Length-prefixed protocol envelopes over localhost TCP sockets."""

    HOST = "127.0.0.1"

    def __init__(self, config, metrics: MetricsCollector) -> None:
        super().__init__(config, metrics)
        self._loop = asyncio.new_event_loop()
        self._round = 0
        #: Frames queued for the wire: (src, dst, envelope bytes).
        self._outbox: Deque[Tuple[int, int, bytes]] = deque()
        #: Frames sent but not yet fully processed at their receiver.
        self._pending = 0
        #: The same count broken down by receiving replica, so a stall
        #: can name who stopped making progress.
        self._pending_by_dst: Dict[int, int] = {}
        self._progress: Optional[asyncio.Event] = None
        self._servers: list = []
        self._ports: List[int] = []
        self._writers: Dict[int, Dict[int, asyncio.StreamWriter]] = {}
        self._reader_tasks: list = []
        self._failure: Optional[BaseException] = None
        self._started = False
        self._closed = False
        #: Shutdown scheduled by a re-entrant close() (loop running).
        self._deferred_shutdown: Optional[asyncio.Task] = None
        self._epoch = time.monotonic()

    # ------------------------------------------------------------------
    # Wiring: sockets come up when the runtimes bind.
    # ------------------------------------------------------------------

    def bind(self, runtimes) -> None:
        super().bind(runtimes)
        self._loop.run_until_complete(self._open_sockets())
        self._started = True

    async def _open_sockets(self) -> None:
        self._progress = asyncio.Event()
        for node in range(self.topology.n):
            server = await asyncio.start_server(
                functools.partial(self._accept, node), self.HOST, 0
            )
            self._servers.append(server)
            self._ports.append(server.sockets[0].getsockname()[1])
        for node in range(self.topology.n):
            self._writers[node] = {}
            for peer in self.topology.neighbors(node):
                writer = await framing.dial(self.HOST, self._ports[peer], node)
                await writer.drain()
                self._writers[node][peer] = writer

    async def _accept(self, dst: int, reader, writer) -> None:
        """Serve one inbound peer connection: handshake, then frames.

        The one accept loop of the socket peer plane, whether ``dst``
        is one of this loop's n endpoints or a replica process's only
        one.  A frame whose processing must finish asynchronously (a
        process writing its replies) hands back the awaitable that
        does; in-process delivery returns ``None`` and costs no await.
        """
        self._reader_tasks.append(asyncio.current_task())
        try:
            handshake = await framing.read_frame(reader)
            if handshake is None:
                return
            src = framing.read_hello(handshake)
            while True:
                data = await framing.read_frame(reader)
                if data is None:
                    return
                settled = self._deliver_frame(src, dst, data)
                if settled is not None:
                    await settled
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self._peer_failed(exc)
        finally:
            writer.close()
            if self._progress is not None:
                self._progress.set()

    def _peer_failed(self, exc: BaseException) -> None:
        """A peer connection died: surface it in the driving coroutine."""
        self._failure = exc

    def _deliver_frame(self, src: int, dst: int, data: bytes) -> None:
        try:
            self._receive(src, dst, data)
        finally:
            self._pending -= 1
            remaining = self._pending_by_dst.get(dst, 0) - 1
            if remaining > 0:
                self._pending_by_dst[dst] = remaining
            else:
                self._pending_by_dst.pop(dst, None)
            if self._progress is not None:
                self._progress.set()

    def _receive(self, src: int, dst: int, data: bytes) -> None:
        """Decode one frame and hand it to its runtime, link permitting."""
        message = decode_message(data)
        if not self.link_up(src, dst):
            # Defensive only: faults are injected between rounds and
            # rounds settle to quiescence, so under the current drivers
            # no frame is ever caught in flight (see module docstring).
            self.metrics.record_loss(MESSAGE_SEVERED, src, dst, message.kind)
        else:
            self._trace_deliver(src, dst, message.kind)
            self.runtimes[dst].deliver(src, message)

    # ------------------------------------------------------------------
    # The data plane.
    # ------------------------------------------------------------------

    def send(self, src: int, sends: Sequence[Send]) -> None:
        """Admit, encode, account (measured wire bytes), and queue frames."""
        for send in sends:
            if not self._admit(src, send):
                continue
            frame = frame_message(send.message)
            if self._transmit(
                src,
                send,
                frame.payload_bytes,
                frame.metadata_bytes + LENGTH_PREFIX_BYTES,
            ):
                self._enqueue(src, send.dst, frame.data)

    def _enqueue(self, src: int, dst: int, data: bytes) -> None:
        """Queue one accounted frame; it is in flight until processed."""
        self._pending += 1
        self._pending_by_dst[dst] = self._pending_by_dst.get(dst, 0) + 1
        self._outbox.append((src, dst, data))
        if self._progress is not None:
            self._progress.set()

    # ------------------------------------------------------------------
    # Driving: one synchronization interval per round.
    # ------------------------------------------------------------------

    def run_round(self, updates=None) -> None:
        if not self._started:
            raise RuntimeError("transport is not bound to runtimes yet")
        if updates is not None:
            for node in range(self.topology.n):
                mutators = updates(node)
                if not mutators:
                    continue
                if node in self.down:
                    # The client's replica is gone; its scheduled
                    # operations are lost, and visibly so.
                    self.updates_skipped += len(mutators)
                    continue
                for mutator in mutators:
                    self.runtimes[node].local_update(mutator)
        # Every live timer fires before any delivery — the loop is not
        # running yet, so ticks observe the quiesced pre-round state,
        # matching the simulator's half-interval timer alignment.
        for node in range(self.topology.n):
            if node in self.down:
                continue
            self.runtimes[node].tick()
        self._loop.run_until_complete(self._settle())
        self.sample_memory(self.now)
        self._round += 1
        if self.metrics.tracer is not None:
            self.metrics.tracer.emit(ROUND, round=self._round - 1)

    async def _settle(self) -> None:
        """Flush the outbox and wait until no frame is in flight."""
        while True:
            if self._failure is not None:
                failure, self._failure = self._failure, None
                raise failure
            touched = set()
            while self._outbox:
                src, dst, data = self._outbox.popleft()
                writer = self._writers[src][dst]
                writer.write(framing.frame(data))
                touched.add(writer)
            for writer in touched:
                await writer.drain()
            if self._pending == 0 and not self._outbox:
                return
            self._progress.clear()
            try:
                await asyncio.wait_for(self._progress.wait(), timeout=SETTLE_TIMEOUT_S)
            except asyncio.TimeoutError:
                stalled = ", ".join(
                    f"replica {dst} ({count} frame{'s' if count != 1 else ''})"
                    for dst, count in sorted(self._pending_by_dst.items())
                )
                raise TransportStalled(
                    f"round {self._round}: no delivery progress for "
                    f"{SETTLE_TIMEOUT_S}s with {self._pending} frame(s) "
                    f"in flight; stalled at {stalled or 'unknown receivers'}"
                ) from None

    @property
    def rounds_run(self) -> int:
        return self._round

    @property
    def now(self) -> float:
        """Milliseconds of real (monotonic) time since transport creation."""
        return (time.monotonic() - self._epoch) * 1000.0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        if self._started and not self._loop.is_closed() and self._loop.is_running():
            # close() re-entered from inside the running loop — e.g.
            # cleanup after TransportStalled escaped _settle, or __del__
            # firing from a callback.  run_until_complete would raise
            # RuntimeError here, so cancel the readers, schedule the
            # socket shutdown on the live loop, and leave the final
            # teardown (and the loop itself) to a later close() call
            # made from outside the loop.
            for task in self._reader_tasks:
                task.cancel()
            if self._deferred_shutdown is None:
                self._deferred_shutdown = self._loop.create_task(self._shutdown())
            return
        self._closed = True
        try:
            if self._started and not self._loop.is_closed():
                deferred = self._deferred_shutdown
                if deferred is None:
                    self._loop.run_until_complete(self._shutdown())
                elif not deferred.done():
                    self._loop.run_until_complete(deferred)
                elif deferred.cancelled() or deferred.exception() is not None:
                    # The scheduled teardown died mid-flight; retrieving
                    # the exception (so asyncio does not log it as lost)
                    # and running a fresh shutdown closes what it missed.
                    self._loop.run_until_complete(self._shutdown())
        finally:
            # Even a teardown that raised must not leak the loop:
            # _closed is already True, so no later call would retry.
            self._loop.close()

    async def _shutdown(self) -> None:
        # Close the client sides first: readers then end on EOF and
        # their tasks finish normally instead of being cancelled.
        for peers in self._writers.values():
            for writer in peers.values():
                writer.close()
        for peers in self._writers.values():
            for writer in peers.values():
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        if self._reader_tasks:
            _, pending = await asyncio.wait(self._reader_tasks, timeout=5.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()

    def __del__(self) -> None:  # pragma: no cover - defensive cleanup
        try:
            self.close()
        except (RuntimeError, OSError) as exc:
            # A destructor must not raise.  close() entered this late
            # can find the loop half-dead (RuntimeError) or the sockets
            # already torn down (OSError); report the leak the way
            # CPython reports unclosed resources rather than hiding it.
            warnings.warn(
                f"AsyncTcpTransport.__del__: close failed: {exc!r}",
                ResourceWarning,
                source=self,
            )

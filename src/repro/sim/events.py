"""Deterministic discrete-event queue.

A minimal priority queue of timestamped events with a monotone sequence
tiebreaker, so that two events scheduled for the same instant always
fire in scheduling order.  Determinism matters: every experiment in the
benchmark suite must produce identical traces across runs and machines,
so that the paper's figures are exactly regenerable.

An :class:`Event` is a ``NamedTuple``: immutable, cheap to build, and
ordered on the heap by tuple comparison in C.  ``seq`` is unique per
queue, so two events never get as far as comparing ``action`` or
``payload`` (which need not support ``<``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, NamedTuple, Optional


class Event(NamedTuple):
    """A scheduled event: fires at ``time`` with a stable tiebreak order.

    Attributes:
        time: Simulation timestamp in milliseconds.
        seq: Scheduling sequence number; breaks ties deterministically.
        action: Callback invoked when the event fires.
        payload: Optional data passed to the callback.
    """

    time: float
    seq: int
    action: Callable[["Event"], None]
    payload: Any = None


class EventQueue:
    """A heap-based future event list with deterministic ordering.

    >>> q = EventQueue()
    >>> fired = []
    >>> _ = q.schedule(5.0, lambda e: fired.append("b"))
    >>> _ = q.schedule(1.0, lambda e: fired.append("a"))
    >>> q.run()
    >>> fired
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, action: Callable[[Event], None], payload: Any = None) -> Event:
        """Schedule ``action`` to fire at absolute ``time``.

        Scheduling in the past is rejected — it would silently reorder
        causality inside an experiment.
        """
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} before current time {self._now}")
        event = Event(time, next(self._counter), action, payload)
        heapq.heappush(self._heap, event)
        return event

    def schedule_in(self, delay: float, action: Callable[[Event], None], payload: Any = None) -> Event:
        """Schedule ``action`` to fire ``delay`` ms from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, action, payload)

    def pop(self) -> Optional[Event]:
        """Remove and return the next event, advancing the clock."""
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)
        self._now = event.time
        return event

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        event = self.pop()
        if event is None:
            return False
        event.action(event)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Fire events until exhaustion, a time horizon, or an event cap.

        Returns the number of events fired.  ``until`` is inclusive: an
        event at exactly ``until`` still fires.
        """
        fired = 0
        while self._heap:
            if until is not None and self._heap[0].time > until:
                break
            if max_events is not None and fired >= max_events:
                break
            self.step()
            fired += 1
        return fired

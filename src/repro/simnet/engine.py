"""Discrete-event simulation engine.

The engine maintains a priority queue of events keyed by simulated time and
a monotonically increasing sequence number (so that events scheduled for the
same instant fire in scheduling order, which keeps runs deterministic).
Everything else in the package — flows completing, auctions firing, clients
issuing requests — is expressed as engine events.

Two hot-path design points:

* The heap stores ``(time, seq, event)`` tuples rather than bare
  :class:`Event` objects, so every sift comparison is a C-level tuple
  compare of two floats/ints instead of a Python-level ``Event.__lt__``
  call (which would also allocate two tuples per comparison).
* Cancellation is lazy: :meth:`Event.cancel` only flags the event, and the
  engine skips flagged entries when they surface.  When cancelled events
  outnumber live ones (heap-compaction), the queue is rebuilt in place —
  see :attr:`Engine.COMPACT_MIN_QUEUE` for the exact policy.

Deterministic ordering is a contract on the ``(time, seq)`` key alone, so a
component that manages many future callbacks itself can reserve sequence
numbers up front (:meth:`Engine.reserve_seqs`) and later push a single event
at a reserved key (:meth:`Engine.schedule_at_seq`).  The fluid network's
completion calendar does this: it keeps every flow's ``(eta, seq)`` in its
own columns and holds one engine event for the earliest, which therefore
fires exactly where the flow's own event would have.  The engine counts heap
pushes and cancellations (:attr:`Engine.events_scheduled`,
:attr:`Engine.events_cancelled`); reserved keys that never reach the heap
count in neither.

The engine also hosts the *flush hook* protocol used by the fluid network's
deferred rate recomputation: components register a callback via
:meth:`Engine.add_flush_callback` and arm it with :meth:`Engine.request_flush`
whenever they have deferred work; the engine guarantees every armed flush
runs before the simulated clock next advances (before each event fires and
before a ``run(until=...)`` fast-forwards an idle clock), which is exactly
the window in which deferred rate updates are still exact.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.errors import SchedulingError


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Engine.schedule_at` and
    :meth:`Engine.schedule_after` so the caller can cancel them later.
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "cancelled", "fired", "_engine")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple,
                 kwargs: Optional[dict], engine: Optional["Engine"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        #: ``None`` (not ``{}``) when the callback takes no keyword arguments;
        #: the common case then skips the ``**`` unpacking entirely.
        self.kwargs = kwargs
        self.cancelled = False
        self.fired = False
        self._engine = engine

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            engine._cancels += 1
            engine._cancelled_in_queue += 1
            if (
                len(engine._queue) >= engine.COMPACT_MIN_QUEUE
                and engine._cancelled_in_queue * 2 > len(engine._queue)
            ):
                engine._compact()

    @property
    def pending(self) -> bool:
        """True if the event has neither fired nor been cancelled."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.6f}, {name}, {state})"


class Engine:
    """A deterministic discrete-event engine with a simulated clock."""

    #: Compact the queue when cancelled events outnumber live ones (and the
    #: queue is big enough for a rebuild to be worth the heapify).
    COMPACT_MIN_QUEUE = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        #: Heap of ``(time, seq, Event)`` entries; see the module docstring.
        self._queue: list = []
        self._seq = 0
        #: Heap pushes and cancellations (see the module docstring).
        self._pushes = 0
        self._cancels = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._cancelled_in_queue = 0
        self._needs_flush = False
        self._flush_callbacks: List[Callable[[], None]] = []
        #: The ``until`` of the current/most recent :meth:`run`, or ``None``.
        #: Purely advisory — workload generators (the clients' batched
        #: arrival pregeneration) use it to avoid pregenerating events far
        #: past the end of the run.
        self.run_horizon: Optional[float] = None

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        """Number of events pushed onto the queue so far."""
        return self._pushes

    @property
    def events_cancelled(self) -> int:
        """Number of queued events cancelled before they fired."""
        return self._cancels

    @property
    def pending_events(self) -> int:
        """Number of live (not cancelled) events still in the queue."""
        return len(self._queue) - self._cancelled_in_queue

    # -- deferred-work flushing -------------------------------------------------

    def add_flush_callback(self, callback: Callable[[], None]) -> None:
        """Register a callback to run before the clock next advances.

        The callback fires only after :meth:`request_flush` arms it, and the
        engine disarms before calling, so a callback that defers new work
        re-arms naturally.  Used by
        :class:`~repro.simnet.network.FluidNetwork` to batch rate
        recomputation; see that class for the dirty-set protocol.
        """
        self._flush_callbacks.append(callback)

    def request_flush(self) -> None:
        """Arm the registered flush callbacks (idempotent, O(1))."""
        self._needs_flush = True

    def _flush(self) -> None:
        self._needs_flush = False
        for callback in self._flush_callbacks:
            callback()

    # -- cancellation bookkeeping ----------------------------------------------

    def _compact(self) -> None:
        """Drop cancelled events and rebuild the heap in place.

        In place matters: the run loop holds a reference to the queue list,
        so compaction must mutate it (slice assignment) rather than rebind
        ``self._queue``.
        """
        self._queue[:] = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0

    # -- scheduling ------------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable, *args, **kwargs) -> Event:
        """Schedule ``callback(*args, **kwargs)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at t={time:.6f}, which is before now={self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._pushes += 1
        event = Event(time, seq, callback, args, kwargs or None, engine=self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_after(self, delay: float, callback: Callable, *args, **kwargs) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"delay must be non-negative, got {delay}")
        # ``schedule_at(self._now + delay, ...)``, inlined — this is the
        # hottest scheduling entry point.
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        self._pushes += 1
        event = Event(time, seq, callback, args, kwargs or None, engine=self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def reserve_seqs(self, count: int = 1) -> int:
        """Reserve ``count`` consecutive sequence numbers; return the first.

        A reserved number orders exactly like the event
        :meth:`schedule_at` would have created at this point; pass it to
        :meth:`schedule_at_seq` to push that event later, or never.
        """
        seq = self._seq
        self._seq = seq + count
        return seq

    def schedule_at_seq(self, time: float, seq: int, callback: Callable, *args) -> Event:
        """Schedule ``callback(*args)`` at the exact key ``(time, seq)``.

        ``seq`` must come from :meth:`reserve_seqs`, and no two live events
        may share it.
        """
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at t={time:.6f}, which is before now={self._now:.6f}"
            )
        if not 0 <= seq < self._seq:
            raise SchedulingError(f"sequence number {seq} was never reserved")
        self._pushes += 1
        event = Event(time, seq, callback, args, None, engine=self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def call_soon(self, callback: Callable, *args, **kwargs) -> Event:
        """Schedule ``callback`` at the current simulated time."""
        return self.schedule_at(self._now, callback, *args, **kwargs)

    # -- execution -------------------------------------------------------------

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if the queue is empty."""
        if self._needs_flush:
            self._flush()
        queue = self._queue
        while queue:
            time, _seq, event = heapq.heappop(queue)
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            self._now = time
            event.fired = True
            self._events_processed += 1
            kwargs = event.kwargs
            if kwargs:
                event.callback(*event.args, **kwargs)
            else:
                event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the simulated time at which the run stopped.  When ``until``
        is given, the clock is advanced to exactly ``until`` even if the last
        event fired earlier, so back-to-back ``run`` calls compose naturally.
        """
        self._running = True
        self._stopped = False
        self.run_horizon = until
        fired = 0
        queue = self._queue
        try:
            while True:
                if self._needs_flush:
                    # Re-evaluate every exit condition after flushing: the
                    # flush may itself schedule events within the horizon
                    # (or re-arm the flag), and every break below must be
                    # taken on settled state — otherwise the final clock
                    # advance could strand an event in the past.
                    self._flush()
                    continue
                if not queue or self._stopped:
                    break
                if max_events is not None and fired >= max_events:
                    break
                entry = queue[0]
                event = entry[2]
                if event.cancelled:
                    heapq.heappop(queue)
                    self._cancelled_in_queue -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                heapq.heappop(queue)
                self._now = time
                event.fired = True
                self._events_processed += 1
                kwargs = event.kwargs
                if kwargs:
                    event.callback(*event.args, **kwargs)
                else:
                    event.callback(*event.args)
                fired += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    def drain(self) -> int:
        """Run every remaining event; return how many fired."""
        fired = 0
        while self.step():
            fired += 1
        return fired

    # -- periodic helpers --------------------------------------------------------

    def schedule_every(
        self,
        interval: float,
        callback: Callable,
        *args,
        start_after: Optional[float] = None,
        **kwargs,
    ) -> "PeriodicTask":
        """Run ``callback`` every ``interval`` seconds until cancelled."""
        if interval <= 0:
            raise SchedulingError(f"interval must be positive, got {interval}")
        task = PeriodicTask(self, interval, callback, args, kwargs)
        first = interval if start_after is None else start_after
        task._arm(first)
        return task


class PeriodicTask:
    """A repeating event created by :meth:`Engine.schedule_every`."""

    def __init__(self, engine: Engine, interval: float, callback: Callable, args: tuple, kwargs: dict):
        self._engine = engine
        self.interval = interval
        self._callback = callback
        self._args = args
        self._kwargs = kwargs
        self._event: Optional[Event] = None
        self.cancelled = False
        self.fire_count = 0

    def _arm(self, delay: float) -> None:
        self._event = self._engine.schedule_after(delay, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fire_count += 1
        self._callback(*self._args, **self._kwargs)
        if not self.cancelled:
            self._arm(self.interval)

    def cancel(self) -> None:
        """Stop the periodic task."""
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()

"""The discrete-event engine.

A :class:`Simulator` owns an integer-nanosecond clock and a scheduler of
:class:`Event` callbacks.  Events scheduled for the same instant fire in
the order they were scheduled (FIFO tie-breaking), which keeps runs
fully deterministic.

The engine is intentionally tiny -- everything else in the reproduction
(links, switches, NICs, transports) is expressed as plain objects that
schedule callbacks on a shared ``Simulator``.

Performance notes (this is the hottest code in the repository -- every
simulated packet costs several engine events):

* The scheduler is one binary heap of ``(time, seq, event)`` tuples,
  so the order is exactly (time, FIFO-seq) -- as the determinism
  fingerprints in ``benchmarks/BASELINE.json`` and the Hypothesis
  equivalence suite in ``tests/test_engine_ordering.py`` assert.
* :meth:`schedule1` / :meth:`schedule0` -- what links, ports and timers
  call per frame -- skip the ``*args`` tuple, draw :class:`Event`
  objects from a **free-list** (recycled after they fire, so
  steady-state dispatch allocates only the heap entry) and each carry
  their whole body: one Python frame per scheduled event.

Observation (:meth:`Simulator.observe_every`) is not an event.  A
periodic reader -- the telemetry poll -- registers an *observer*; the
run loop clips its dispatch horizon to the next observer boundary and
calls the observer between two dispatch passes, so a tick takes no
``seq``, is not counted in ``events_fired`` / ``pending`` /
``max_events`` and costs the per-event loop nothing.  A run with an
observer is therefore the run without one, event for event, and an
observer that schedules or cancels raises :class:`SimulationError`.
"""

from heapq import heapify, heappop, heappush

#: Free-list bound: enough to cover every in-flight pooled event of a
#: saturated run without letting an idle sim pin memory forever.
_POOL_MAX = 8192


class SimulationError(Exception):
    """Raised for invalid use of the simulation engine."""


class Event:
    """A scheduled callback; returned by :meth:`Simulator.schedule`.

    Events may be cancelled before they fire.  Cancelled events stay in
    the heap but are skipped when reached (lazy deletion), which is O(1)
    per cancel instead of O(n); the simulator compacts the heap once
    cancelled entries dominate, so timer-heavy runs do not retain dead
    events.

    ``kind`` encodes the call convention: 0 -- ``args`` is a tuple
    (``fn(*args)``); 1 -- ``args`` is the single positional argument;
    2 -- no arguments.  Kinds 1 and 2 are pool-managed: the engine
    recycles them after dispatch, so callers must not retain (or cancel)
    their handles past the event's fire time.
    """

    __slots__ = ("time", "seq", "fn", "args", "kind", "cancelled", "sim")

    def __init__(self, time, seq, fn, args, sim=None, kind=0):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.kind = kind
        self.cancelled = False
        # Back-reference kept only while the event sits in the heap, so
        # cancellation can update the owner's cancelled-entry count.
        self.sim = sim

    def cancel(self):
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None
        self.args = None
        sim = self.sim
        if sim is not None:
            sim._cancelled += 1
            self.sim = None

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return "Event(t=%d, seq=%d, %s)" % (self.time, self.seq, state)


class Observer:
    """A periodic read-only callback; returned by
    :meth:`Simulator.observe_every`.  ``next_ns`` is the boundary the
    next tick fires at."""

    __slots__ = ("sim", "interval_ns", "next_ns", "fn")

    def __init__(self, sim, interval_ns, fn):
        self.sim = sim
        self.interval_ns = interval_ns
        self.next_ns = sim._now + interval_ns
        self.fn = fn

    def cancel(self):
        """Stop ticking.  Idempotent."""
        if self.sim is not None:
            self.sim._observers.remove(self)
            self.sim = None


class Simulator:
    """A deterministic discrete-event simulator with a nanosecond clock.

    Public surface:

    * :meth:`at` / :meth:`schedule` / :meth:`call_soon` -- queue a callback
      (absolute time, relative delay, or the current instant) and get back
      a cancellable :class:`Event`;
    * :meth:`schedule1` / :meth:`schedule0` -- allocation-light variants
      for hot internal callers (single argument / no argument);
    * :meth:`run` / :meth:`run_until_idle` / :meth:`step` -- dispatch;
    * :meth:`observe_every` -- a periodic reader outside the event queue;
    * :attr:`now`, :attr:`events_fired`, :attr:`pending` -- observability.
    """

    __slots__ = (
        "_now",
        "_seq",
        "_running",
        "_events_fired",
        "_cancelled",
        "_heap",
        "_pool",
        "_observers",
    )

    # Lazy deletion keeps cancels O(1), but a fault-heavy run that arms
    # and re-arms timers (pause refresh, RTO, watchdogs) can leave the
    # heap mostly dead entries.  Once the dead outnumber the live (and
    # there are enough to matter), rebuild the heap without them.
    _COMPACT_MIN_CANCELLED = 64

    def __init__(self):
        self._now = 0
        self._seq = 0
        self._running = False
        self._events_fired = 0
        self._cancelled = 0  # cancelled entries still in the heap
        self._heap = []  # (time, seq, Event)
        self._pool = []  # Event free-list (kind 1/2 only)
        self._observers = []  # Observer, in registration order

    # -- observability -------------------------------------------------------

    @property
    def now(self):
        """Current simulated time in integer nanoseconds."""
        return self._now

    @property
    def events_fired(self):
        """Total callbacks executed so far."""
        return self._events_fired

    @property
    def dispatches(self):
        """Identically :attr:`events_fired`.  Vestigial: kept only because
        ``perfbench/workloads.py`` reads it; the benchmark issue that
        drops ``sim.elided_frac`` should drop this and
        :attr:`elided_events` with it."""
        return self._events_fired

    @property
    def elided_events(self):
        """Constant 0 (every logical event is a dispatch).  Vestigial:
        see :attr:`dispatches`."""
        return 0

    @property
    def pending(self):
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - self._cancelled

    # -- scheduling ----------------------------------------------------------

    def at(self, time, fn, *args):
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        ``time`` must not be in the past (raises :class:`SimulationError`).
        Returns the :class:`Event` so the caller can cancel it.
        """
        time = int(time)
        if time < self._now:
            raise SimulationError(
                "cannot schedule event at t=%d; clock is already at t=%d"
                % (time, self._now)
            )
        return self._push(time, fn, args)

    def schedule(self, delay, fn, *args):
        """Schedule ``fn(*args)`` ``delay`` nanoseconds from now.

        ``delay`` must be non-negative.  Returns the :class:`Event`.
        """
        if delay < 0:
            raise SimulationError("delay cannot be negative: %r" % (delay,))
        return self._push(self._now + int(delay), fn, args)

    def _push(self, time, fn, args):
        """Shared body of at/schedule: a fresh kind-0 event."""
        heap = self._heap
        cancelled = self._cancelled
        if cancelled >= self._COMPACT_MIN_CANCELLED and cancelled * 2 >= len(heap):
            self._compact()
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        heappush(heap, (time, seq, event))
        return event

    def schedule1(self, delay, fn, arg):
        """Schedule ``fn(arg)`` ``delay`` ns from now, drawing the Event
        from the free-list.  The returned handle may be cancelled, but
        must not be retained (or cancelled) past the event's fire time:
        the engine recycles the object.  Internal hot-path API."""
        # Every link delivery comes through here and every frame's
        # tx-complete through schedule0, so each carries its own body
        # rather than paying a second Python frame for a shared one.
        delay = int(delay)
        if delay < 0:
            raise SimulationError("delay cannot be negative: %r" % (delay,))
        time = self._now + delay
        heap = self._heap
        cancelled = self._cancelled
        if cancelled >= self._COMPACT_MIN_CANCELLED and cancelled * 2 >= len(heap):
            self._compact()
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = arg
            event.kind = 1
            event.cancelled = False
            event.sim = self
        else:
            event = Event(time, seq, fn, arg, self, 1)
        heappush(heap, (time, seq, event))
        return event

    def schedule0(self, delay, fn):
        """Pooled, argument-free variant of :meth:`schedule1`."""
        delay = int(delay)
        if delay < 0:
            raise SimulationError("delay cannot be negative: %r" % (delay,))
        time = self._now + delay
        heap = self._heap
        cancelled = self._cancelled
        if cancelled >= self._COMPACT_MIN_CANCELLED and cancelled * 2 >= len(heap):
            self._compact()
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = None
            event.kind = 2
            event.cancelled = False
            event.sim = self
        else:
            event = Event(time, seq, fn, None, self, 2)
        heappush(heap, (time, seq, event))
        return event

    def call_soon(self, fn, *args):
        """Schedule ``fn(*args)`` at the current instant (after pending
        same-time events already in the queue).  Returns the Event."""
        return self.at(self._now, fn, *args)

    # -- storage maintenance -------------------------------------------------

    def _compact(self):
        """Drop cancelled entries from the heap.

        Entries order by their own (time, seq), so re-heapifying the
        survivors cannot change firing order -- compaction is invisible
        to the simulation.  The list is mutated in place because an
        in-progress :meth:`run` holds a direct reference to it.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        self._cancelled = 0

    # -- observation ---------------------------------------------------------

    def observe_every(self, interval_ns, fn):
        """Call ``fn()`` at every boundary ``now + k * interval_ns``
        (k = 1, 2, ...) the clock reaches, with ``now`` equal to the
        boundary, after every event at or before it and before any event
        after it.  Returns an :class:`Observer`; ``cancel()`` stops it.

        A tick is not an event: it takes no ``seq`` and is not counted in
        :attr:`events_fired`, :attr:`pending` or ``max_events``, so a run
        with an observer fires the same events in the same order as the
        run without.  ``run(until=...)`` ticks every boundary up to
        ``until``, idle gaps included; an unbounded run ticks a boundary
        only when a later event carries the clock past it, so an observer
        never keeps :meth:`run_until_idle` alive.  ``fn`` must only read:
        scheduling or cancelling an event from it raises
        :class:`SimulationError`.
        """
        interval_ns = int(interval_ns)
        if interval_ns <= 0:
            raise SimulationError(
                "observer interval must be positive: %r" % (interval_ns,)
            )
        if self._running:
            # The pass in progress was clipped without this observer.
            raise SimulationError("cannot register an observer inside run()")
        observer = Observer(self, interval_ns, fn)
        self._observers.append(observer)
        return observer

    def _tick(self, boundary):
        """Fire every observer due at ``boundary``, in registration order."""
        self._now = boundary
        for observer in tuple(self._observers):
            if observer.next_ns == boundary and observer.sim is self:
                observer.next_ns = boundary + observer.interval_ns
                seq = self._seq
                cancelled = self._cancelled
                observer.fn()
                if self._seq != seq or self._cancelled != cancelled:
                    raise SimulationError(
                        "observer %r scheduled or cancelled an event" % (observer.fn,)
                    )

    # -- dispatch ------------------------------------------------------------

    def step(self):
        """Fire the single next event.  Returns False if the queue is empty."""
        return self.run(max_events=1) > 0

    def run(self, until=None, max_events=None):
        """Run events in order.

        ``until``
            Inclusive simulated-time horizon in nanoseconds.  Events at
            exactly ``until`` fire; the clock is advanced to ``until`` when
            the run ends early (idle), so back-to-back ``run`` calls
            compose.  A run that ``max_events`` cut short of ``until``
            leaves the clock at the last event it fired.
        ``max_events``
            Safety valve for experiments that can livelock *by design*
            (the paper's go-back-0 experiment never terminates on its own).

        Returns the number of events fired by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        fired = 0
        observers = self._observers
        try:
            # One dispatch pass per observer boundary inside the horizon,
            # then the rest of the run: observation is paid for here, per
            # boundary, and never inside the per-event loop.
            while observers:
                boundary = min(observer.next_ns for observer in observers)
                if until is not None and boundary > until:
                    break
                fired = self._dispatch(boundary, max_events, fired)
                upcoming = self._next_live()
                if upcoming is not None and (until is None or upcoming <= until):
                    # The next event carries the clock past the boundary
                    # only if this call may still fire it.
                    if max_events is not None and fired >= max_events:
                        break
                elif until is None:
                    break  # idle, and an unbounded run rests where it is
                self._tick(boundary)
            fired = self._dispatch(until, max_events, fired)
        finally:
            self._running = False
        if until is not None and self._now < until:
            upcoming = self._next_live()
            if upcoming is None or upcoming > until:
                self._now = until
        return fired

    def _next_live(self):
        """Time of the earliest live event (cancelled heads are dropped),
        or None when nothing is queued."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def _dispatch(self, until, max_events, fired):
        """The per-event loop: fire events up to ``until`` (None: all)
        until ``fired`` reaches ``max_events``; returns the new count."""
        heap = self._heap
        pool = self._pool
        while heap:
            if max_events is not None and fired >= max_events:
                break
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            time = entry[0]
            if until is not None and time > until:
                break
            heappop(heap)
            self._now = time
            fn = event.fn
            args = event.args
            kind = event.kind
            # Free references before the callback runs so callbacks
            # that re-schedule themselves do not pin stale arguments.
            event.fn = None
            event.args = None
            event.sim = None  # fired: a late cancel() must not miscount
            self._events_fired += 1
            fired += 1
            if kind == 0:
                fn(*args)
            elif kind == 1:
                fn(args)
            else:
                fn()
            if kind and len(pool) < _POOL_MAX:
                pool.append(event)
        return fired

    def run_until_idle(self, max_events=None):
        """Run until no events remain (or ``max_events`` is hit).

        Returns the number of events fired by this call."""
        return self.run(until=None, max_events=max_events)

    def __repr__(self):
        return "Simulator(now=%d, pending=%d)" % (self._now, self.pending)

"""The discrete-event engine.

A :class:`Simulator` owns an integer-nanosecond clock and a scheduler of
callbacks.  Events scheduled for the same instant fire in the order they
were scheduled (FIFO tie-breaking), which keeps runs fully deterministic.

The engine is intentionally tiny -- everything else in the reproduction
(links, switches, NICs, transports) is expressed as plain objects that
schedule callbacks on a shared ``Simulator``.

Performance notes (this is the hottest code in the repository -- every
simulated packet costs several engine events):

* The heap entry *is* the event: a ``[time, seq, fn, arg]`` list, so the
  order is exactly (time, FIFO-seq) -- as the determinism fingerprints
  in ``benchmarks/BASELINE.json`` and the Hypothesis equivalence suite
  in ``tests/test_engine_ordering.py`` assert.  ``arg`` is the single
  argument, or :data:`_NOARG` for a no-argument call (multi-argument
  calls are bound with :func:`functools.partial`); ``fn is None`` marks
  an entry fired or cancelled.  There is no event object and no
  free-list on the hot path: a dispatch is one heap pop, one store and
  the call.
* :meth:`schedule1` / :meth:`schedule0` -- what links, ports and timers
  call per frame -- return the bare entry and each carry their whole
  body: one Python frame per scheduled event.  :meth:`at` /
  :meth:`schedule` / :meth:`call_soon` return an :class:`Event`, a
  ``list`` subclass of the same entry with ``cancel()``, ``cancelled``
  and ``time``; :meth:`Simulator.cancel` cancels either kind.
* :attr:`Simulator.now` is a plain attribute the dispatch loop writes,
  not a property: model code reads it several times per hop.

Observation (:meth:`Simulator.observe_every`) is not an event.  A
periodic reader -- the telemetry poll -- registers an *observer*; the
run loop clips its dispatch horizon to the next observer boundary and
calls the observer between two dispatch passes, so a tick takes no
``seq``, is not counted in ``events_fired`` / ``pending`` /
``max_events`` and costs the per-event loop nothing.  A run with an
observer is therefore the run without one, event for event, and an
observer that schedules or cancels raises :class:`SimulationError`.
"""

from functools import partial
from heapq import heapify, heappop, heappush

#: The ``arg`` slot of an entry whose ``fn`` takes no argument.
_NOARG = object()
#: The ``arg`` slot of an entry cancelled before it fired.
_CANCELLED = object()


class SimulationError(Exception):
    """Raised for invalid use of the simulation engine."""


class Event(list):
    """A scheduled callback; returned by :meth:`Simulator.at`,
    :meth:`~Simulator.schedule` and :meth:`~Simulator.call_soon`.

    The heap entry ``[time, seq, fn, arg]`` itself, with a way back to
    its simulator.  Events may be cancelled before they fire; cancelled
    events stay in the heap but are skipped when reached (lazy
    deletion), which is O(1) per cancel instead of O(n); the simulator
    compacts the heap once cancelled entries dominate, so timer-heavy
    runs do not retain dead events.  Cancelling an event that already
    fired does nothing.
    """

    __slots__ = ("_sim",)

    @property
    def time(self):
        """Absolute simulated time (ns) the event fires at."""
        return self[0]

    @property
    def cancelled(self):
        """True once :meth:`cancel` took effect (before the event fired)."""
        return self[3] is _CANCELLED

    def cancel(self):
        """Prevent the event from firing.  Idempotent."""
        self._sim.cancel(self)

    def __repr__(self):
        state = "cancelled" if self.cancelled else "fired" if self[2] is None else "pending"
        return "Event(t=%d, seq=%d, %s)" % (self[0], self[1], state)


class Observer:
    """A periodic read-only callback; returned by
    :meth:`Simulator.observe_every`.  ``next_ns`` is the boundary the
    next tick fires at."""

    __slots__ = ("sim", "interval_ns", "next_ns", "fn")

    def __init__(self, sim, interval_ns, fn):
        self.sim = sim
        self.interval_ns = interval_ns
        self.next_ns = sim.now + interval_ns
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
      for hot internal callers (single argument / no argument) that
      return the bare heap entry;
    * :meth:`cancel` -- cancel any handle the above returned;
    * :meth:`run` / :meth:`run_until_idle` / :meth:`step` -- dispatch;
    * :meth:`observe_every` -- a periodic reader outside the event queue;
    * :attr:`now`, :attr:`events_fired`, :attr:`pending` -- observability.
    """

    __slots__ = (
        "now",
        "_seq",
        "_running",
        "_events_fired",
        "_cancelled",
        "_heap",
        "_observers",
    )

    # Lazy deletion keeps cancels O(1), but a fault-heavy run that arms
    # and re-arms timers (pause refresh, RTO, watchdogs) can leave the
    # heap mostly dead entries.  Once the dead outnumber the live (and
    # there are enough to matter), rebuild the heap without them: checked
    # in cancel(), the only place the dead grow.
    _COMPACT_MIN_CANCELLED = 64

    def __init__(self):
        #: Current simulated time in integer nanoseconds.  Written by the
        #: dispatch loop; read-only to everything else.
        self.now = 0
        self._seq = 0
        self._running = False
        self._events_fired = 0
        self._cancelled = 0  # cancelled entries still in the heap
        self._heap = []  # [time, seq, fn, arg] entries
        self._observers = []  # Observer, in registration order

    # -- observability -------------------------------------------------------

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
        if time < self.now:
            raise SimulationError(
                "cannot schedule event at t=%d; clock is already at t=%d"
                % (time, self.now)
            )
        return self._push(time, fn, args)

    def schedule(self, delay, fn, *args):
        """Schedule ``fn(*args)`` ``delay`` nanoseconds from now.

        ``delay`` must be non-negative.  Returns the :class:`Event`.
        """
        if delay < 0:
            raise SimulationError("delay cannot be negative: %r" % (delay,))
        return self._push(self.now + int(delay), fn, args)

    def call_soon(self, fn, *args):
        """Schedule ``fn(*args)`` at the current instant (after pending
        same-time events already in the queue).  Returns the Event."""
        # _push's body, inlined: call_soon is one frame.
        seq = self._seq
        self._seq = seq + 1
        if not args:
            event = Event((self.now, seq, fn, _NOARG))
        elif len(args) == 1:
            event = Event((self.now, seq, fn, args[0]))
        else:
            event = Event((self.now, seq, partial(fn, *args), _NOARG))
        event._sim = self
        heappush(self._heap, event)
        return event

    def _push(self, time, fn, args):
        """Shared body of at/schedule: a fresh :class:`Event`."""
        seq = self._seq
        self._seq = seq + 1
        if not args:
            event = Event((time, seq, fn, _NOARG))
        elif len(args) == 1:
            event = Event((time, seq, fn, args[0]))
        else:
            event = Event((time, seq, partial(fn, *args), _NOARG))
        event._sim = self
        heappush(self._heap, event)
        return event

    def schedule1(self, delay, fn, arg):
        """Schedule ``fn(arg)`` ``delay`` ns from now.  Returns the bare
        heap entry, which :meth:`cancel` accepts.  Internal hot-path API."""
        # Every link delivery and tx-complete comes through here and
        # every timer through schedule0, so each carries its own body
        # rather than paying a second Python frame for a shared one.
        delay = int(delay)
        if delay < 0:
            raise SimulationError("delay cannot be negative: %r" % (delay,))
        seq = self._seq
        self._seq = seq + 1
        entry = [self.now + delay, seq, fn, arg]
        heappush(self._heap, entry)
        return entry

    def schedule0(self, delay, fn):
        """Argument-free variant of :meth:`schedule1`."""
        delay = int(delay)
        if delay < 0:
            raise SimulationError("delay cannot be negative: %r" % (delay,))
        seq = self._seq
        self._seq = seq + 1
        entry = [self.now + delay, seq, fn, _NOARG]
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry):
        """Prevent a scheduled event from firing: ``entry`` is any handle
        :meth:`at`, :meth:`schedule`, :meth:`call_soon`, :meth:`schedule1`
        or :meth:`schedule0` returned.  A no-op once the event fired or
        was cancelled."""
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = _CANCELLED  # also drops the argument
        cancelled = self._cancelled + 1
        self._cancelled = cancelled
        if cancelled >= self._COMPACT_MIN_CANCELLED and cancelled * 2 >= len(self._heap):
            self._compact()

    # -- storage maintenance -------------------------------------------------

    def _compact(self):
        """Drop cancelled entries from the heap.

        Entries order by their own (time, seq), so re-heapifying the
        survivors cannot change firing order -- compaction is invisible
        to the simulation.  The list is mutated in place because an
        in-progress :meth:`run` holds a direct reference to it.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
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
        self.now = boundary
        for observer in tuple(self._observers):
            if observer.next_ns == boundary and observer.sim is self:
                observer.next_ns = boundary + observer.interval_ns
                seq = self._seq
                pending = self.pending  # a cancel lowers it, compaction does not
                observer.fn()
                if self._seq != seq or self.pending != pending:
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
        if until is not None and self.now < until:
            upcoming = self._next_live()
            if upcoming is None or upcoming > until:
                self.now = until
        return fired

    def _next_live(self):
        """Time of the earliest live event (cancelled heads are dropped),
        or None when nothing is queued."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def _dispatch(self, until, max_events, fired):
        """The per-event loop: fire events up to ``until`` (None: all)
        until ``fired`` reaches ``max_events``; returns the new count."""
        heap = self._heap
        noarg = _NOARG
        while heap:
            if max_events is not None and fired >= max_events:
                break
            entry = heap[0]
            fn = entry[2]
            if fn is None:
                heappop(heap)
                self._cancelled -= 1
                continue
            time = entry[0]
            if until is not None and time > until:
                break
            heappop(heap)
            self.now = time
            entry[2] = None  # fired: a late cancel is a no-op
            self._events_fired += 1
            fired += 1
            arg = entry[3]
            if arg is noarg:
                fn()
            else:
                fn(arg)
        return fired

    def run_until_idle(self, max_events=None):
        """Run until no events remain (or ``max_events`` is hit).

        Returns the number of events fired by this call."""
        return self.run(until=None, max_events=max_events)

    def __repr__(self):
        return "Simulator(now=%d, pending=%d)" % (self.now, self.pending)

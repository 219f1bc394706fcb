"""Ordering suite: the engine vs a reference (time, seq) heapq engine.

The `Simulator` in `repro.sim.engine` keeps one heap of (time, seq,
event), recycles pooled events through a free-list and compacts
cancelled entries.  The contract is that the last two are *invisible*:
for any interleaving of schedule / schedule1 / schedule0 / at / cancel /
run(until) / step calls -- including callbacks that schedule at the
instant being dispatched, serialization-scale and RTO-scale delays mixed
in one heap, driver code scheduling between runs, and compaction
boundaries -- the two implementations fire identical (time, seq)
sequences and agree on ``now``, ``events_fired`` and ``pending``.

`ReferenceSimulator` below is a minimal transliteration of the seed
heapq engine (lazy cancellation, FIFO tie-break by sequence number,
inclusive ``run(until=...)`` horizon, clock advanced to the horizon when
nothing live at or before it is left).  It has no pooled path: the programs' ``sched1`` / ``sched0`` ops
reach it as plain ``schedule``.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.engine import SimulationError
from repro.sim.timer import Timer
from tests.strategies import WINDOW_NS as _WINDOW_NS
from tests.strategies import apply_sim_program as _apply_program
from tests.strategies import sim_programs


class _RefEvent:
    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None
        self.args = None


class ReferenceSimulator:
    """The seed engine: one heapq of (time, seq, event), lazy cancel."""

    def __init__(self):
        self._now = 0
        self._seq = 0
        self._queue = []
        self._fired = 0

    @property
    def now(self):
        return self._now

    @property
    def events_fired(self):
        return self._fired

    @property
    def pending(self):
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    def at(self, time, fn, *args):
        time = int(time)
        if time < self._now:
            raise SimulationError("past")
        event = _RefEvent(time, self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError("negative")
        return self.at(self._now + int(delay), fn, *args)

    def step(self):
        while self._queue:
            _time, _seq, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            fn, args = event.fn, event.args
            event.fn = None
            event.args = None
            self._fired += 1
            fn(*args)
            return True
        return False

    def run(self, until=None, max_events=None):
        fired = 0
        while self._queue:
            if max_events is not None and fired >= max_events:
                break
            time, _seq, event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and time > until:
                break
            heapq.heappop(self._queue)
            self._now = time
            fn, args = event.fn, event.args
            event.fn = None
            event.args = None
            self._fired += 1
            fn(*args)
            fired += 1
        if until is not None and self._now < until:
            # Only an idle run reaches its horizon: one that max_events
            # cut short leaves the clock at the last event it fired.
            live = [entry[0] for entry in self._queue if not entry[2].cancelled]
            if not live or min(live) > until:
                self._now = until
        return fired

    def run_until_idle(self, max_events=None):
        return self.run(until=None, max_events=max_events)


class _EagerCompactionSimulator(Simulator):
    """Engine that compacts after only a few cancels, so short generated
    programs cross compaction boundaries many times."""

    _COMPACT_MIN_CANCELLED = 4


# Programs (lists of scheduler ops) and the trace applier are shared
# with the rest of the suite via tests.strategies: sim_programs /
# apply_sim_program.


@settings(max_examples=200, deadline=None)
@given(ops=sim_programs())
def test_engine_matches_heapq_reference(ops):
    sim = Simulator()
    ref = ReferenceSimulator()
    sim_trace = _apply_program(sim, ops)
    ref_trace = _apply_program(ref, ops)
    assert sim_trace == ref_trace
    assert sim.now == ref.now
    assert sim.events_fired == ref.events_fired
    assert sim.pending == ref.pending == 0


@settings(max_examples=100, deadline=None)
@given(ops=sim_programs())
def test_engine_matches_reference_across_compaction_boundaries(ops):
    # Same program, but the engine compacts after 4 cancels instead of
    # 64, so cancel-heavy interleavings hit compaction mid-flight.
    # Compaction must be invisible to ordering.
    sim = _EagerCompactionSimulator()
    ref = ReferenceSimulator()
    assert _apply_program(sim, ops) == _apply_program(ref, ops)
    assert (sim.now, sim.events_fired) == (ref.now, ref.events_fired)


@pytest.mark.parametrize(
    "ops",
    [
        # A callback firing exactly at the run horizon schedules for t,
        # then the driver schedules for the same t: driver goes second.
        [("run", 5), ("chain", 3, 4), ("run", 3), ("sched", 4)],
        # step() stops mid-instant; the driver schedules for t, then a
        # remaining same-instant callback does: driver goes first.
        [("sched", 10), ("chain", 10, 5), ("step", 0), ("sched", 5)],
        # The same two through the pooled fast path.
        [("run", 5), ("chain", 3, 4), ("run", 3), ("sched1", 4)],
        [("sched0", 10), ("chain", 10, 5), ("step", 0), ("sched1", 5)],
    ],
)
def test_driver_scheduling_between_runs_keeps_fifo(ops):
    # Hypothesis rarely draws the equal delays these need, so pin them.
    assert _apply_program(Simulator(), ops) == _apply_program(
        ReferenceSimulator(), ops
    )


def test_pooled_fast_paths_keep_fifo_order():
    # schedule1/schedule0 (free-listed events) must interleave with the
    # public tuple path in strict FIFO order at equal times.
    sim = Simulator()
    order = []
    sim.schedule(10, order.append, "tuple-0")
    sim.schedule1(10, order.append, "single-1")
    sim.schedule0(10, lambda: order.append("noarg-2"))
    sim.schedule(10, order.append, "tuple-3")
    sim.schedule1(5, order.append, "single-early")
    sim.run_until_idle()
    assert order == ["single-early", "tuple-0", "single-1", "noarg-2", "tuple-3"]


def test_pooled_events_are_recycled():
    sim = Simulator()
    hits = []
    first = sim.schedule1(1, hits.append, "a")
    sim.run_until_idle()
    second = sim.schedule1(1, hits.append, "b")
    assert second is first  # drawn from the free-list
    sim.run_until_idle()
    assert hits == ["a", "b"]


def test_pooled_event_cancel_before_fire():
    sim = Simulator()
    hits = []
    event = sim.schedule1(50, hits.append, "never")
    sim.schedule(10, event.cancel)
    sim.run_until_idle()
    assert hits == []
    assert sim.pending == 0


def test_far_future_event_fires_at_its_exact_time():
    sim = Simulator()
    hits = []
    sim.schedule(5 * _WINDOW_NS + 37, hits.append, None)
    sim.run_until_idle()
    assert hits == [None]
    assert sim.now == 5 * _WINDOW_NS + 37


def test_horizon_break_then_near_past_schedule():
    # Regression guard: breaking at a run(until=...) horizon must not
    # consume or strand the first queued event; one scheduled afterwards
    # for an earlier time still fires first.
    sim = Simulator()
    hits = []
    sim.schedule(12_800, hits.append, "far")
    sim.run(until=10)
    sim.schedule(5, hits.append, "near")
    sim.run_until_idle()
    assert hits == ["near", "far"]


def test_past_schedule_still_rejected():
    sim = Simulator()
    sim.schedule(50, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.at(10, lambda: None)


@pytest.mark.parametrize(
    "schedule",
    [
        lambda sim: sim.schedule1(-5, lambda _arg: None, None),
        lambda sim: sim.schedule0(-5, lambda: None),
        lambda sim: Timer(sim, lambda: None).start(-5),
    ],
    ids=["schedule1", "schedule0", "Timer.start"],
)
def test_pooled_negative_delay_rejected(schedule):
    # Like schedule(): a negative delay must raise, not queue an event
    # in the past that runs the clock backwards when it fires.
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(SimulationError):
        schedule(sim)
    assert sim.pending == 0
    sim.run_until_idle()
    assert sim.now == 10


# -- the observer tick --------------------------------------------------------
# Simulator.observe_every: a periodic reader outside the event queue.  The
# contract is that it is invisible to the run -- same events, same order,
# same seq numbers, same clock -- and that each tick reads a settled
# instant: everything at or before its boundary has fired, nothing after.


def _observed(ops, interval_ns, cancel_after=None):
    """Apply ``ops`` to a Simulator carrying one observer; returns the
    sim, the trace and the boundaries it ticked.  The observer checks its
    own instant; ``cancel_after`` cancels it from inside the n-th tick."""
    sim = Simulator()
    ticks = []

    def tick():
        boundary = interval_ns * (len(ticks) + 1)
        assert sim.now == boundary, "ticks fire once each, in boundary order"
        live = [time for time, _seq, event in sim._heap if not event.cancelled]
        assert all(time > boundary for time in live), "an event <= B is still queued"
        ticks.append(boundary)
        if len(ticks) == cancel_after:
            observer.cancel()

    observer = sim.observe_every(interval_ns, tick)
    trace = _apply_program(sim, ops)
    return sim, trace, ticks


def _assert_invisible(ops, interval_ns):
    dark = Simulator()
    dark_trace = _apply_program(dark, ops)
    sim, trace, ticks = _observed(ops, interval_ns)
    assert trace == dark_trace  # event order, and now/events_fired per run
    assert (sim.now, sim.events_fired, sim.pending, sim._seq) == (
        dark.now, dark.events_fired, dark.pending, dark._seq)
    # Every boundary the clock passed was ticked, none beyond it; one the
    # final unbounded run came to rest on exactly waits for the next run.
    assert len(ticks) >= (sim.now - 1) // interval_ns
    assert not ticks or ticks[-1] <= sim.now
    return ticks


@settings(max_examples=200, deadline=None)
@given(ops=sim_programs(), interval_ns=st.integers(500, 2 * _WINDOW_NS))
def test_an_observer_is_invisible_to_the_run(ops, interval_ns):
    _assert_invisible(ops, interval_ns)


@pytest.mark.parametrize(
    "ops, ticked",
    [
        # Events exactly on a boundary fire before its tick, including one
        # a same-instant callback schedules with delay 0.
        ([("sched", 100), ("chain", 100, 0), ("run", 250)], [100, 200]),
        # A run ending exactly on a boundary ticks it; idle boundaries tick.
        ([("run", 100), ("run", 100), ("run", 99)], [100, 200]),
        # max_events cuts the run before the boundary: the clock stays at
        # 60, and the closing idle run (event at 90) never gets to 100.
        ([("sched", 60), ("sched", 90), ("cut", 300, 1)], []),
        # ... and a cut with nothing left before the horizon reaches it;
        # the closing idle run then crosses 400..800 on its way to 900.
        ([("sched", 60), ("sched", 900), ("cut", 300, 1)],
         [100, 200, 300, 400, 500, 600, 700, 800]),
        # step() crosses boundaries only with the event that carries the
        # clock past them.
        ([("sched", 250), ("step", 0)], [100, 200]),
    ],
)
def test_observer_boundaries_pinned(ops, ticked):
    # Hypothesis rarely lands an event or a horizon on a boundary.
    assert _assert_invisible(ops, 100) == ticked


def test_observer_never_keeps_an_idle_run_alive():
    sim = Simulator()
    ticks = []
    sim.observe_every(10, lambda: ticks.append(sim.now))
    sim.schedule(35, lambda: None)
    assert sim.run_until_idle() == 1
    assert (sim.now, sim.pending, ticks) == (35, 0, [10, 20, 30])
    assert sim.run_until_idle() == 0 and sim.now == 35


@pytest.mark.parametrize(
    "perturb",
    [
        lambda sim, event: sim.schedule(1, lambda: None),
        lambda sim, event: sim.schedule0(0, lambda: None),
        lambda sim, event: event.cancel(),
    ],
    ids=["schedule", "schedule0", "cancel"],
)
def test_observer_that_schedules_or_cancels_raises(perturb):
    sim = Simulator()
    event = sim.schedule(1000, lambda: None)
    sim.observe_every(10, lambda: perturb(sim, event))
    with pytest.raises(SimulationError, match="observer"):
        sim.run(until=100)


def test_observer_cancel_mid_run_stops_further_ticks():
    ops = [("sched", 50 * k) for k in range(1, 20)] + [("run", 2000)]
    sim, _trace, ticks = _observed(ops, 100, cancel_after=3)
    assert ticks == [100, 200, 300]
    assert sim.now == 2000 and sim._observers == []


def test_observer_cancelled_from_an_event_stops_at_once():
    sim = Simulator()
    ticks = []
    observer = sim.observe_every(100, lambda: ticks.append(sim.now))
    sim.schedule(250, observer.cancel)
    sim.run(until=1000)
    observer.cancel()  # idempotent
    assert ticks == [100, 200]


def test_observers_share_a_boundary_in_registration_order():
    sim = Simulator()
    ticks = []
    sim.observe_every(20, lambda: ticks.append(("a", sim.now)))
    sim.observe_every(30, lambda: ticks.append(("b", sim.now)))
    sim.run(until=60)
    assert ticks == [("a", 20), ("b", 30), ("a", 40), ("a", 60), ("b", 60)]


def test_observer_registration_is_checked():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.observe_every(0, lambda: None)
    sim.schedule(5, sim.observe_every, 10, lambda: None)
    with pytest.raises(SimulationError, match="inside run"):
        sim.run_until_idle()

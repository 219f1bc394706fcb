"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator, Timer
from repro.sim.engine import SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run_until_idle()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(5, order.append, tag)
    sim.run_until_idle()
    assert order == list(range(10))


def test_run_until_horizon_is_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, "at-horizon")
    sim.schedule(101, fired.append, "past-horizon")
    sim.run(until=100)
    assert fired == ["at-horizon"]
    assert sim.now == 100


def test_run_advances_clock_to_horizon_when_idle():
    sim = Simulator()
    sim.run(until=500)
    assert sim.now == 500


def test_back_to_back_runs_compose():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.schedule(300, fired.append, 2)
    sim.run(until=200)
    assert fired == [1]
    sim.run(until=400)
    assert fired == [1, 2]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, fired.append, "x")
    sim.schedule(5, event.cancel)
    sim.run_until_idle()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    sim.run_until_idle()


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.schedule(50, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.at(10, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_callbacks_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run_until_idle()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50


def test_call_soon_fires_at_current_time_after_queued_peers():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.call_soon(order.append, "soon")

    sim.schedule(10, first)
    sim.schedule(10, order.append, "second")
    sim.run_until_idle()
    assert order == ["first", "second", "soon"]


def test_max_events_stops_runaway_loop():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    fired = sim.run_until_idle(max_events=1000)
    assert fired == 1000


def test_run_cut_by_max_events_does_not_pass_pending_events():
    # A bounded run that max_events cut short must leave the clock at the
    # last event it fired: advancing to the horizon would strand the
    # t=20 event in the past and order a later schedule(0) after it.
    sim = Simulator()
    seen = []
    sim.at(10, lambda: seen.append(sim.now))
    sim.at(20, lambda: seen.append(sim.now))
    assert sim.run(until=100, max_events=1) == 1
    assert sim.now == 10
    sim.schedule(0, lambda: seen.append(("late", sim.now)))
    sim.run_until_idle()
    assert seen == [10, ("late", 10), 20]


def test_run_cut_by_max_events_reaches_the_horizon_when_idle_before_it():
    sim = Simulator()
    sim.at(10, lambda: None)
    cancelled = sim.at(50, lambda: None)
    sim.at(200, lambda: None)
    cancelled.cancel()
    assert sim.run(until=100, max_events=1) == 1
    assert sim.now == 100  # nothing live at or before the horizon is left


def test_step_fires_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, "a")
    sim.schedule(2, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert not sim.step()


def test_pending_counts_live_events():
    sim = Simulator()
    keep = sim.schedule(10, lambda: None)
    drop = sim.schedule(20, lambda: None)
    drop.cancel()
    assert sim.pending == 1
    assert keep.time == 10


def test_events_fired_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(1, lambda: None)
    sim.run_until_idle()
    assert sim.events_fired == 7


def test_a_long_chain_fires_each_event_once():
    sim = Simulator()
    remaining = [100_000]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(10, tick)

    sim.schedule(0, tick)
    sim.run_until_idle()
    assert sim.events_fired == 100_000


def test_cancelled_events_do_not_accumulate_in_heap():
    # Regression: cancelled events used to stay in the heap as tombstones
    # until their deadline, so a schedule/cancel loop (every retransmission
    # timer restart does this) grew the heap without bound.
    sim = Simulator()
    sim.schedule(1_000_000, lambda: None)  # one live far-future event
    for _ in range(10_000):
        sim.schedule(500, lambda: None).cancel()
    assert sim.pending == 1
    assert len(sim._heap) < 1000  # tombstones compacted away, not retained


def test_compaction_preserves_firing_order():
    sim = Simulator()
    fired = []
    live = []
    for tag in range(200):
        live.append(sim.schedule(tag * 3 + 7, fired.append, tag))
    # Interleave enough cancels to force several compactions.
    for _ in range(2000):
        sim.schedule(10_000, lambda: None).cancel()
    sim.run_until_idle()
    assert fired == list(range(200))


def test_cancel_after_fire_keeps_accounting_sane():
    sim = Simulator()
    event = sim.schedule(5, lambda: None)
    sim.run_until_idle()
    event.cancel()  # a no-op: already fired
    assert sim._cancelled == 0
    assert sim.pending == 0


def test_pending_exact_across_mixed_cancels():
    sim = Simulator()
    events = [sim.schedule(100 + i, lambda: None) for i in range(50)]
    for event in events[::2]:
        event.cancel()
    assert sim.pending == 25
    sim.run_until_idle()
    assert sim.pending == 0


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        sim.run_until_idle()
        assert fired == [100]

    def test_restart_resets_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        sim.schedule(50, timer.start, 100)
        sim.run_until_idle()
        assert fired == [150]

    def test_every_rearm_cancels_the_previous_deadline(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None, "rto")
        for _ in range(100_000):
            timer.start(5)
        sim.run_until_idle()
        assert sim.events_fired == 1

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        sim.schedule(10, timer.cancel)
        sim.run_until_idle()
        assert fired == []

    def test_armed_and_deadline(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        assert timer.deadline is None
        timer.start(42)
        assert timer.armed
        assert timer.deadline == 42
        sim.run_until_idle()
        assert not timer.armed

    def test_extend_to_only_moves_deadline_later(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        timer.extend_to(50)  # earlier: ignored
        assert timer.deadline == 100
        timer.extend_to(200)
        assert timer.deadline == 200
        sim.run_until_idle()
        assert fired == [200]

    def test_extend_to_arms_idle_timer(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.extend_to(75)
        sim.run_until_idle()
        assert fired == [75]

    def test_timer_can_rearm_itself_from_callback(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: None)

        def periodic():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(10)

        timer._callback = periodic
        timer.start(10)
        sim.run_until_idle()
        assert fired == [10, 20, 30]

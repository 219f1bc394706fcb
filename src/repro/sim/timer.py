"""A restartable one-shot timer.

Watchdogs (paper section 4.3), retransmission timers, DCQCN's periodic alpha
and rate-increase timers, and pause-duration expiry all follow the same
pattern: arm a callback some delay in the future, possibly re-arm or cancel
it before it fires.  :class:`Timer` wraps that pattern so that model code
never has to track raw engine handles.
"""


class Timer:
    """One-shot timer bound to a simulator and a callback.

    The callback is invoked with no arguments when the timer expires.
    Restarting an armed timer cancels the previous deadline first.
    """

    # One Timer per QP RTO / watchdog / pause expiry / DCQCN clock: this
    # is a per-event-source hot class, so keep it dict-free.
    __slots__ = ("_sim", "_callback", "_entry", "_fire_ref", "name")

    def __init__(self, sim, callback, name=""):
        self._sim = sim
        self._callback = callback
        # The pending engine entry ([time, seq, fn, arg]) while armed.
        self._entry = None
        # Pre-bound so the hot start() path allocates nothing.
        self._fire_ref = self._fire
        self.name = name

    @property
    def armed(self):
        """True while a deadline is pending."""
        return self._entry is not None

    @property
    def deadline(self):
        """Absolute expiry time (ns), or None when not armed."""
        entry = self._entry
        return None if entry is None else entry[0]

    def start(self, delay_ns):
        """Arm (or re-arm) the timer to fire ``delay_ns`` from now."""
        # Both arming paths inline cancel() and go through schedule0: the
        # timer holds the bare entry and drops it in _fire, when it fires.
        sim = self._sim
        entry = self._entry
        if entry is not None:
            self._entry = None
            sim.cancel(entry)
        self._entry = sim.schedule0(delay_ns, self._fire_ref)

    def start_at(self, time_ns):
        """Arm (or re-arm) the timer to fire at absolute ``time_ns``."""
        sim = self._sim
        entry = self._entry
        if entry is not None:
            self._entry = None
            sim.cancel(entry)
        self._entry = sim.schedule0(time_ns - sim.now, self._fire_ref)

    def extend_to(self, time_ns):
        """Push the deadline out to ``time_ns`` if that is later than the
        current deadline (arming the timer if it is idle)."""
        entry = self._entry
        if entry is None or entry[0] < time_ns:
            self.start_at(time_ns)

    def cancel(self):
        """Disarm the timer.  Idempotent."""
        entry = self._entry
        if entry is not None:
            self._entry = None
            self._sim.cancel(entry)

    def _fire(self):
        self._entry = None
        self._callback()

    def __repr__(self):
        if self.armed:
            return "Timer(%s, fires_at=%d)" % (self.name, self._entry[0])
        return "Timer(%s, idle)" % (self.name,)

"""The DCQCN reaction point: per-QP rate control.

State per QP: current rate RC, target rate RT, and the congestion
estimate alpha.  The control law (DCQCN paper, section 5):

On every CNP::

    RT    <- RC
    RC    <- RC * (1 - alpha / 2)
    alpha <- (1 - g) * alpha + g
    (rate-increase state resets)

Alpha decays toward zero while no CNPs arrive (one step per
``alpha_timer_ns``)::

    alpha <- (1 - g) * alpha

Rate increases are driven by two independent event streams -- a timer
(every ``rate_timer_ns``) and a byte counter (every ``byte_counter_bytes``
sent).  Counting events since the last CNP as ``T`` (timer) and ``B``
(byte):

* **fast recovery** (both <= F):  RC <- (RT + RC) / 2
* **additive increase** (one > F):  RT += R_AI, then RC <- (RT + RC)/2
* **hyper increase** (both > F):  RT += R_HAI, then RC <- (RT + RC)/2
"""

from repro.sim.timer import Timer
from repro.sim.units import MB, US
from repro.obs import TRACE as _TRACE


class DcqcnConfig:
    """DCQCN RP parameters (defaults follow the DCQCN paper's table)."""

    def __init__(
        self,
        g=1.0 / 256,
        alpha_timer_ns=55 * US,
        rate_timer_ns=300 * US,
        byte_counter_bytes=10 * MB,
        fast_recovery_steps=5,
        rate_ai_bps=40 * 10**6,
        rate_hai_bps=400 * 10**6,
        min_rate_bps=40 * 10**6,
    ):
        self.g = g
        self.alpha_timer_ns = alpha_timer_ns
        self.rate_timer_ns = rate_timer_ns
        self.byte_counter_bytes = byte_counter_bytes
        self.fast_recovery_steps = fast_recovery_steps
        self.rate_ai_bps = rate_ai_bps
        self.rate_hai_bps = rate_hai_bps
        self.min_rate_bps = min_rate_bps


class ReactionPoint:
    """Rate state machine for one sending QP."""

    def __init__(self, sim, line_rate_bps, config=None):
        self.sim = sim
        self.config = config or DcqcnConfig()
        self.line_rate_bps = line_rate_bps
        self.rc = float(line_rate_bps)  # current (enforced) rate
        self.rt = float(line_rate_bps)  # target rate
        self.alpha = 1.0
        self._timer_events = 0
        self._byte_events = 0
        self._bytes_since_event = 0
        self._alpha_timer = Timer(sim, self._on_alpha_timer, name="dcqcn.alpha")
        self._rate_timer = Timer(sim, self._on_rate_timer, name="dcqcn.rate")
        # Counters.
        self.cnps_handled = 0
        self.rate_decreases = 0
        self.rate_increases = 0
        # Trace attribution: the owning host's name (set by
        # :func:`enable_dcqcn`; "" for standalone RPs in unit tests).
        self.owner = ""

    @property
    def rate_bps(self):
        """The rate the QP paces at."""
        return int(self.rc)

    @property
    def at_line_rate(self):
        return self.rc >= self.line_rate_bps

    # -- CNP (congestion) ---------------------------------------------------------

    def on_cnp(self):
        """Multiplicative decrease + alpha rise; resets increase state."""
        config = self.config
        self.cnps_handled += 1
        self.rate_decreases += 1
        self.rt = self.rc
        self.rc = max(config.min_rate_bps, self.rc * (1 - self.alpha / 2))
        self.alpha = (1 - config.g) * self.alpha + config.g
        self._timer_events = 0
        self._byte_events = 0
        self._bytes_since_event = 0
        self._alpha_timer.start(config.alpha_timer_ns)
        self._rate_timer.start(config.rate_timer_ns)
        if _TRACE.enabled:
            _TRACE.session.on_rate_decrease(self)

    # -- quiet-period dynamics ------------------------------------------------------

    def _on_alpha_timer(self):
        self.alpha = (1 - self.config.g) * self.alpha
        if self.alpha > 1e-6 or not self.at_line_rate:
            self._alpha_timer.start(self.config.alpha_timer_ns)

    def _on_rate_timer(self):
        self._timer_events += 1
        self._increase()
        if not self.at_line_rate:
            self._rate_timer.start(self.config.rate_timer_ns)

    def on_bytes_sent(self, nbytes):
        """QP hook: drives the byte-counter event stream."""
        if self.at_line_rate:
            return
        self._bytes_since_event += nbytes
        if self._bytes_since_event >= self.config.byte_counter_bytes:
            self._bytes_since_event -= self.config.byte_counter_bytes
            self._byte_events += 1
            self._increase()

    def _increase(self):
        config = self.config
        f = config.fast_recovery_steps
        timer_past = self._timer_events > f
        byte_past = self._byte_events > f
        if timer_past and byte_past:
            self.rt = min(self.line_rate_bps, self.rt + config.rate_hai_bps)
        elif timer_past or byte_past:
            self.rt = min(self.line_rate_bps, self.rt + config.rate_ai_bps)
        # Fast recovery halves the distance to the target in every stage.
        self.rc = min(self.line_rate_bps, (self.rt + self.rc) / 2)
        self.rate_increases += 1

    def __repr__(self):
        return "ReactionPoint(rc=%.0f, rt=%.0f, alpha=%.4f)" % (self.rc, self.rt, self.alpha)


def enable_dcqcn(qp, config=None):
    """Attach a reaction point to a connected QP.

    Must be called after the QP's host is wired to its ToR (the RP needs
    the line rate).  Returns the :class:`ReactionPoint`.
    """
    link = qp.host.nic.port.link
    if link is None:
        raise RuntimeError("enable_dcqcn: host %s is not connected yet" % qp.host.name)
    rp = ReactionPoint(qp.sim, line_rate_bps=link.rate_bps, config=config)
    rp.owner = qp.host.name
    qp.rp = rp
    return rp

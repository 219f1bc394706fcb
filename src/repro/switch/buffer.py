"""The shared-buffer manager.

The paper's switches (section 2) are shallow-buffer shared-memory parts
(9 MB or 12 MB): "an ingress queue is implemented simply as a counter --
all packets share a common buffer pool."  This module reproduces that
design:

* every buffered packet is accounted against its **ingress** port and
  priority group (PG);
* a lossless PG that exceeds its XOFF threshold triggers a PFC pause to
  the upstream; packets that keep arriving during the pause's "gray
  period" land in that PG's reserved **headroom**;
* a lossy PG that exceeds its threshold simply drops;
* thresholds are either **static** or **dynamic**: the dynamic threshold
  is ``alpha x (unallocated shared buffer)``, the exact rule at the heart
  of the section 6.2 incident (alpha silently changing from 1/16 to 1/64
  on a new switch model made pauses fire far earlier).

XON hysteresis: pause is released when the PG drains ``xon_delta_bytes``
below the threshold in force at release-evaluation time.
"""

from repro.packets.pause import N_PRIORITIES
from repro.sim.units import KB, MB, SEC, propagation_delay_ns, serialization_delay_ns
from repro.obs import TELEMETRY as _TELEMETRY


def headroom_bytes(rate_bps, cable_meters, mtu_bytes=1100, response_ns=1000):
    """PFC headroom needed per lossless PG on one port (section 2).

    Worst case between the XOFF decision and the upstream actually
    stopping:

    * one maximum-size frame already being serialized upstream when the
      pause lands (cannot be preempted), plus one being serialized locally
      when the decision is made;
    * the pause frame's own serialization;
    * 2x the propagation delay (pause travels up, in-flight data travels
      down);
    * the upstream's response/processing time.

    With 300 m cables at 40 Gb/s this comes to roughly 26 KB per PG per
    port -- which is why the paper can afford only **two** lossless
    classes in a 9-12 MB buffer (section 2).
    """
    propagation = propagation_delay_ns(cable_meters)
    pause_frame_ns = serialization_delay_ns(64, rate_bps)
    gray_period_ns = 2 * propagation + pause_frame_ns + response_ns
    in_flight = gray_period_ns * rate_bps // (8 * SEC)
    return int(in_flight + 2 * mtu_bytes)


class BufferConfig:
    """Configuration of a switch's shared packet buffer.

    ``alpha``
        Dynamic-threshold fraction; the shared-buffer threshold for every
        PG is ``alpha x (shared_size - shared_in_use)``.  The paper's ToR
        default is 1/16; the section 6.2 incident was a switch shipping
        with 1/64.  Set to ``None`` to use ``xoff_static_bytes`` instead.
    ``xoff_static_bytes``
        Static per-PG XOFF threshold (used when ``alpha is None``).
    ``xon_delta_bytes``
        Hysteresis: resume when the PG is this far below the threshold.
    ``headroom_per_pg_bytes``
        Reserved headroom per (port, lossless priority).
    ``guaranteed_per_pg_bytes``
        Per-PG guaranteed minimum that does not draw from the shared pool.
    """

    def __init__(
        self,
        total_bytes=12 * MB,
        alpha=1.0 / 16,
        xoff_static_bytes=96 * KB,
        xon_delta_bytes=4 * KB,
        headroom_per_pg_bytes=26 * KB,
        guaranteed_per_pg_bytes=2 * KB,
        lossy_egress_cap_bytes=None,
    ):
        if total_bytes <= 0:
            raise ValueError("buffer must have positive size")
        if alpha is not None and alpha <= 0:
            raise ValueError("alpha must be positive (e.g. 1/16), got %r" % (alpha,))
        self.total_bytes = total_bytes
        self.alpha = alpha
        self.xoff_static_bytes = xoff_static_bytes
        self.xon_delta_bytes = xon_delta_bytes
        self.headroom_per_pg_bytes = headroom_per_pg_bytes
        self.guaranteed_per_pg_bytes = guaranteed_per_pg_bytes
        # Per-egress-queue byte cap for *lossy* classes (None: uncapped).
        # Synchronized incast overflows at the egress queue -- "packet
        # drops due to congestion, while rare, are not entirely absent"
        # (section 1) -- which is where TCP's latency tail comes from.
        self.lossy_egress_cap_bytes = lossy_egress_cap_bytes

    @property
    def is_dynamic(self):
        return self.alpha is not None

    def copy(self, **overrides):
        """A new config with ``overrides`` applied.

        Builders share one BufferConfig instance across every switch, so
        drifting a single device (the section 6.2 incident: one switch
        model shipping alpha=1/64) must copy-then-assign, never mutate.
        """
        kwargs = dict(
            total_bytes=self.total_bytes,
            alpha=self.alpha,
            xoff_static_bytes=self.xoff_static_bytes,
            xon_delta_bytes=self.xon_delta_bytes,
            headroom_per_pg_bytes=self.headroom_per_pg_bytes,
            guaranteed_per_pg_bytes=self.guaranteed_per_pg_bytes,
            lossy_egress_cap_bytes=self.lossy_egress_cap_bytes,
        )
        kwargs.update(overrides)
        return BufferConfig(**kwargs)


class PgState:
    """Accounting for one (ingress port, priority) pair."""

    __slots__ = ("occupancy", "headroom_used", "paused")

    def __init__(self):
        self.occupancy = 0  # bytes buffered, excluding headroom usage
        self.headroom_used = 0
        self.paused = False  # pause currently asserted toward upstream

    def shared_occupancy(self, guaranteed):
        """Bytes this PG draws from the shared pool (above guaranteed)."""
        return max(0, self.occupancy - guaranteed)


class SharedBuffer:
    """Ingress-accounted shared buffer for one switch.

    The buffer does not know about pause frames; it returns *decisions*
    (:meth:`admit`, :meth:`evaluate_pause`) and the switch acts on them.
    Lossless PGs must have been declared via ``lossless`` at admit time
    so headroom accounting applies.

    PG state lives in ``pg_rows[port_idx][priority]``, built once here.
    :meth:`admit` / :meth:`release` / :meth:`evaluate_pause` take
    indices and check them; the switch's per-frame walk already holds
    the :class:`PgState` and calls the ``*_state`` bodies directly.
    """

    def __init__(self, config, n_ports, lossless_priorities=(3,)):
        self.config = config
        self.n_ports = n_ports
        self.lossless_priorities = frozenset(lossless_priorities)
        self.pg_rows = [
            [PgState() for _ in range(N_PRIORITIES)] for _ in range(n_ports)
        ]
        # Headroom and guaranteed pools are carved out of the total;
        # what remains is the shared pool that dynamic alpha divides.
        n_lossless_pgs = n_ports * len(self.lossless_priorities)
        self.headroom_total = config.headroom_per_pg_bytes * n_lossless_pgs
        self.shared_size = (
            config.total_bytes
            - self.headroom_total
            - config.guaranteed_per_pg_bytes * n_ports * N_PRIORITIES
        )
        if self.shared_size <= 0:
            raise ValueError(
                "buffer config leaves no shared space: total=%d headroom=%d"
                % (config.total_bytes, self.headroom_total)
            )
        self.shared_in_use = 0
        # Aggregates exported as telemetry gauges: how many PGs currently
        # assert pause, and total headroom bytes in use.
        self.paused_pgs = 0
        self.headroom_in_use = 0
        self.peak_shared_in_use = 0
        # Telemetry attribution: the owning switch's name (set by
        # ``Switch.finalize``; "" for buffers built standalone in tests).
        self.owner_name = ""

    def pg(self, port_idx, priority):
        """The :class:`PgState` of ``(port_idx, priority)``."""
        if not (0 <= port_idx < self.n_ports and 0 <= priority < N_PRIORITIES):
            raise ValueError(
                "no PG (%r, %r) in a %d-port buffer" % (port_idx, priority, self.n_ports)
            )
        return self.pg_rows[port_idx][priority]

    def iter_pgs(self):
        """Yield ``(port_idx, priority, state)`` for every PG.  Read-only
        view used by the invariant auditors."""
        for port_idx, row in enumerate(self.pg_rows):
            for priority, state in enumerate(row):
                yield port_idx, priority, state

    # -- thresholds ----------------------------------------------------------

    def threshold(self):
        """Current per-PG shared-pool threshold in bytes."""
        if self.config.is_dynamic:
            free = self.shared_size - self.shared_in_use
            return max(0, int(self.config.alpha * free))
        return self.config.xoff_static_bytes

    def xon_threshold(self):
        """Occupancy below which a paused PG resumes."""
        return max(0, self.threshold() - self.config.xon_delta_bytes)

    # -- admission -----------------------------------------------------------

    def admit(self, port_idx, priority, nbytes, lossless):
        """Try to buffer ``nbytes`` arriving at ``(port_idx, priority)``.

        Returns True if admitted.  A lossy PG over threshold drops.  A
        lossless PG over threshold is admitted into headroom; only
        headroom exhaustion drops it (a *violation*: with correctly sized
        headroom this never happens, and tests assert it doesn't).  The
        caller counts a refusal (the switch's ``drops["buffer-lossy"]``
        and ``drops["buffer-headroom-overflow"]``).
        """
        return self.admit_state(self.pg(port_idx, priority), nbytes, lossless)

    def admit_state(self, state, nbytes, lossless):
        """:meth:`admit` for a caller already holding the PG's state."""
        # Hot path: every forwarded packet passes through here once.  The
        # config object is read afresh on every call -- fault injection
        # (``drift_buffer_alpha``) swaps scalar values under us and the
        # next admit must already see them, so nothing here may be cached
        # across calls.
        config = self.config
        guaranteed = config.guaranteed_per_pg_bytes
        occupancy = state.occupancy
        grown = occupancy + nbytes
        if grown <= guaranteed:
            # Within the guaranteed minimum: the shared pool is untouched.
            state.occupancy = grown
            return True
        shared_occ = occupancy - guaranteed
        if shared_occ < 0:
            shared_occ = 0
        alpha = config.alpha
        if alpha is not None:
            threshold = int(alpha * (self.shared_size - self.shared_in_use))
            if threshold < 0:
                threshold = 0
        else:
            threshold = config.xoff_static_bytes
        if shared_occ + nbytes <= threshold:
            state.occupancy = grown
            shared = self.shared_in_use + (grown - guaranteed) - shared_occ
            self.shared_in_use = shared
            if shared > self.peak_shared_in_use:
                self.peak_shared_in_use = shared
            return True
        if not lossless:
            return False
        # Lossless and over threshold: spill into this PG's headroom.
        if state.headroom_used + nbytes > config.headroom_per_pg_bytes:
            return False
        state.headroom_used += nbytes
        self.headroom_in_use += nbytes
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_headroom_spill(self.owner_name, nbytes)
        return True

    def release(self, port_idx, priority, nbytes):
        """Return ``nbytes`` of ``(port_idx, priority)`` to the pool.

        Headroom usage is drained first (LIFO relative to admission order
        does not matter for totals).
        """
        self.release_state(self.pg(port_idx, priority), nbytes)

    def release_state(self, state, nbytes):
        """:meth:`release` for a caller already holding the PG's state."""
        headroom = state.headroom_used
        if headroom:
            from_headroom = headroom if headroom < nbytes else nbytes
            state.headroom_used = headroom - from_headroom
            self.headroom_in_use -= from_headroom
            remainder = nbytes - from_headroom
        else:
            remainder = nbytes
        occupancy = state.occupancy
        if remainder > occupancy:
            where = next(((i, p) for i, p, s in self.iter_pgs() if s is state), None)
            raise RuntimeError(
                "buffer release underflow at pg%s: %d > %d"
                % (where, remainder, occupancy)
            )
        guaranteed = self.config.guaranteed_per_pg_bytes
        before = occupancy - guaranteed
        if before < 0:
            before = 0
        occupancy -= remainder
        state.occupancy = occupancy
        after = occupancy - guaranteed
        if after < 0:
            after = 0
        self.shared_in_use -= before - after

    # -- pause decisions -----------------------------------------------------

    def evaluate_pause(self, port_idx, priority):
        """Combined pause decision for one PG in a single pass.

        Returns ``1`` (assert pause), ``-1`` (release pause) or ``0`` (no
        change) -- semantically ``should_pause`` / ``should_resume``
        folded together so the per-event PFC evaluation does one PG
        lookup and one threshold computation instead of up to two each.
        Thresholds are read from the live config (see :meth:`admit`).
        """
        return self.evaluate_pause_state(self.pg(port_idx, priority))

    def evaluate_pause_state(self, state):
        """:meth:`evaluate_pause` for a caller already holding the PG's
        state.  Pure: the switch asks after every admit and release and
        acts (through the PG's signaler) only on a non-zero answer."""
        if state.headroom_used > 0:
            # Spilled bytes assert pause and hold it until they drain.
            return 0 if state.paused else 1
        config = self.config
        shared_occ = state.occupancy - config.guaranteed_per_pg_bytes
        if shared_occ < 0:
            shared_occ = 0
        alpha = config.alpha
        if alpha is not None:
            threshold = int(alpha * (self.shared_size - self.shared_in_use))
            if threshold < 0:
                threshold = 0
        else:
            threshold = config.xoff_static_bytes
        if not state.paused:
            return 1 if shared_occ > threshold else 0
        xon = threshold - config.xon_delta_bytes
        if xon < 0:
            xon = 0
        return -1 if shared_occ <= xon else 0

    def should_pause(self, port_idx, priority):
        """True when the PG is above XOFF and not already paused."""
        state = self.pg(port_idx, priority)
        if state.paused:
            return False
        if state.headroom_used > 0:
            return True
        guaranteed = self.config.guaranteed_per_pg_bytes
        return state.shared_occupancy(guaranteed) > self.threshold()

    def should_resume(self, port_idx, priority):
        """True when a paused PG has drained below XON."""
        state = self.pg(port_idx, priority)
        if not state.paused:
            return False
        if state.headroom_used > 0:
            return False
        guaranteed = self.config.guaranteed_per_pg_bytes
        return state.shared_occupancy(guaranteed) <= self.xon_threshold()

    def occupancy(self, port_idx, priority):
        """Total bytes held by a PG (including headroom usage)."""
        state = self.pg(port_idx, priority)
        return state.occupancy + state.headroom_used

    @property
    def total_occupancy(self):
        return sum(s.occupancy + s.headroom_used for _, _, s in self.iter_pgs())

    def __repr__(self):
        return "SharedBuffer(shared %d/%d B, threshold=%dB)" % (
            self.shared_in_use,
            self.shared_size,
            self.threshold(),
        )

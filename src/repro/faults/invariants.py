"""Runtime invariant auditors.

The reproduction silently leans on a handful of invariants -- every
buffered byte is accounted exactly once, PSNs only move forward (unless
go-back-0 is deliberately rewinding them), a PAUSE is eventually matched
by a RESUME or a watchdog fires, and a lossless queue never wedges a
packet forever.  The paper's section 4 pathologies are precisely the
scenarios where one of these stops holding; DCFIT-style fault injection
is only useful if something *checks*.

An :class:`AuditorRegistry` wakes on a periodic simulator tick and runs
every registered auditor against live component state (components expose
read-only audit accessors; the tick never mutates model state or draws
from any RNG stream, so audited runs stay bit-identical to unaudited
ones).  Violations either raise immediately (``mode="raise"``, for tests
asserting a run is clean) or accumulate on ``registry.violations``
(``mode="record"``, for experiments that *expect* a pathology and want
to report it).
"""

from repro.packets.pause import N_PRIORITIES
from repro.sim.timer import Timer
from repro.sim.units import MS, US, fmt_time

#: Invariants that must hold in *every* run, pathological or not:
#: accounting identities whose violation always means a simulator bug.
CONSERVATION_INVARIANTS = (
    "buffer-conservation",
    "nic-rx-conservation",
    "nic-tx-ready",
    "psn-monotonic",
)

#: Liveness bounds: a deadlocked or pause-stormed fabric legitimately
#: trips these -- pathology experiments use them as detectors, while
#: benign runs (the validation sweep) require them clean.
LIVENESS_INVARIANTS = (
    "pause-bounded",
    "lossless-queue-age",
)


class InvariantViolation(AssertionError):
    """A runtime invariant failed while the auditors were in raise mode."""


class Violation:
    """One invariant failure observed at one audit tick."""

    __slots__ = ("time_ns", "invariant", "subject", "detail")

    def __init__(self, time_ns, invariant, subject, detail):
        self.time_ns = time_ns
        self.invariant = invariant
        self.subject = subject
        self.detail = detail

    def __repr__(self):
        return "[%s] %s @ %s: %s" % (
            fmt_time(self.time_ns),
            self.invariant,
            self.subject,
            self.detail,
        )


class BufferConservationAuditor:
    """Conservation of buffered bytes on one switch.

    Every byte the shared buffer thinks it holds must be backed by a
    packet sitting in some egress queue (claims are released synchronously
    at dequeue, so between events the two views must agree), the shared
    pool must stay within bounds, and each port's per-priority byte
    counter must match a recount of its queue.
    """

    invariant = "buffer-conservation"

    def __init__(self, switch):
        self.switch = switch

    def audit(self, now, report):
        switch = self.switch
        buffer = switch.buffer
        if buffer is None:
            return  # not finalized yet: nothing admitted, nothing to check
        claimed = sum(claim.nbytes for claim in switch.iter_buffer_claims())
        if claimed != buffer.total_occupancy:
            report(
                switch.name,
                "queued claims total %dB but buffer accounts %dB"
                % (claimed, buffer.total_occupancy),
            )
        if not 0 <= buffer.shared_in_use <= buffer.shared_size:
            report(
                switch.name,
                "shared pool out of bounds: %d of %d"
                % (buffer.shared_in_use, buffer.shared_size),
            )
        for port_idx, priority, pg in buffer.iter_pgs():
            if pg.occupancy < 0 or pg.headroom_used < 0:
                report(
                    switch.name,
                    "negative PG accounting at (%d, %d): occupancy=%d headroom=%d"
                    % (port_idx, priority, pg.occupancy, pg.headroom_used),
                )
            if pg.headroom_used > buffer.config.headroom_per_pg_bytes:
                report(
                    switch.name,
                    "PG (%d, %d) headroom %dB exceeds the %dB reservation"
                    % (
                        port_idx,
                        priority,
                        pg.headroom_used,
                        buffer.config.headroom_per_pg_bytes,
                    ),
                )
        for port in switch.ports:
            recount = [0] * N_PRIORITIES
            for priority, packet, _meta, _enqueued_ns in port.iter_entries():
                recount[priority] += packet.size_bytes
            if recount != port.queued_bytes:
                report(
                    port.name,
                    "queue byte counters %r disagree with recount %r"
                    % (port.queued_bytes, recount),
                )


class NicRxConservationAuditor:
    """The NIC receive buffer's occupancy counter matches its queue."""

    invariant = "nic-rx-conservation"

    def __init__(self, nic):
        self.nic = nic

    def audit(self, now, report):
        claimed, actual = self.nic.audit_rx_accounting()
        if claimed != actual:
            report(
                self.nic.name,
                "rx occupancy counter %dB vs queued frames %dB" % (claimed, actual),
            )
        if not 0 <= claimed <= self.nic.config.rx_buffer_bytes:
            report(
                self.nic.name,
                "rx occupancy %dB outside buffer of %dB"
                % (claimed, self.nic.config.rx_buffer_bytes),
            )


class NicTxReadyAuditor:
    """No wake-up is lost: a registered source with work to send is in
    its NIC's ready set.

    The NIC's transmit scheduler probes only the ready set; a source
    enters it by calling ``notify_tx_ready`` when it gains work.  One
    that becomes ready without notifying is never looked at again, and
    its traffic hangs with every counter at rest -- so the auditor asks
    each source directly.  (A dead NIC does not transmit, but keeps its
    ready set for the repair; it is checked all the same.)
    """

    invariant = "nic-tx-ready"

    def __init__(self, nic):
        self.nic = nic

    def audit(self, now, report):
        for source in self.nic.audit_tx_ready():
            report(
                self.nic.name,
                "%r can send but is not in the ready set (a missing "
                "notify_tx_ready)" % (source,),
            )


class PsnMonotonicityAuditor:
    """Per-QP PSN ordering across the whole fabric.

    QPs are discovered dynamically each tick (RDMA engines attach to
    hosts lazily).  ``una``/``epsn`` must never move backwards -- except
    under go-back-0, whose message restarts rewind both by design (the
    section 4.1 livelock); those QPs are exempted via the
    ``responder_restarts`` flag their own config publishes.
    """

    invariant = "psn-monotonic"

    def __init__(self, fabric):
        self.fabric = fabric
        self._last = {}

    def audit(self, now, report):
        for host in self.fabric.hosts:
            engine = getattr(host, "rdma", None)
            if engine is None:
                continue
            for qp in engine.qps:
                state = qp.audit_state()
                subject = "%s/qp%d" % (host.name, qp.qpn)
                if not 0 <= state["una"] <= state["high_sent"]:
                    report(
                        subject,
                        "una %d outside [0, high_sent=%d]"
                        % (state["una"], state["high_sent"]),
                    )
                if state["send_ptr"] > state["total_end"]:
                    report(
                        subject,
                        "send_ptr %d beyond enqueued end %d"
                        % (state["send_ptr"], state["total_end"]),
                    )
                prev = self._last.get(subject)
                if prev is not None:
                    for field in ("bytes_completed", "messages_completed",
                                  "data_packets_sent", "high_sent"):
                        if state[field] < prev[field]:
                            report(
                                subject,
                                "%s went backwards: %d -> %d"
                                % (field, prev[field], state[field]),
                            )
                    if not state["responder_restarts"]:
                        if state["una"] < prev["una"]:
                            report(
                                subject,
                                "una rewound %d -> %d under a policy that "
                                "never restarts" % (prev["una"], state["una"]),
                            )
                        if state["epsn"] < prev["epsn"]:
                            report(
                                subject,
                                "epsn rewound %d -> %d under a policy that "
                                "never restarts" % (prev["epsn"], state["epsn"]),
                            )
                self._last[subject] = state


class PauseProgressAuditor:
    """Every PAUSE is eventually matched by a RESUME or a watchdog fire.

    Checked as a liveness bound on one device's ports: a priority that
    stays paused with data queued and no transmissions for longer than
    ``max_stall_ns`` has lost its resume -- unless a watchdog already
    disabled lossless service on the port, which *is* the promised
    resolution.  One violation per stall episode (not one per tick).
    """

    invariant = "pause-bounded"

    def __init__(self, device, max_stall_ns=2 * MS):
        self.device = device
        self.max_stall_ns = max_stall_ns
        self._state = {}  # port.index -> [stuck_since, tx_marker, reported]

    def audit(self, now, report):
        device = self.device
        lossless_disabled = getattr(device, "lossless_disabled", None)
        for port in device.ports:
            state = self._state.setdefault(port.index, [None, -1, False])
            if lossless_disabled is not None and lossless_disabled(port):
                state[0], state[2] = None, False
                continue
            blocked = any(
                port.queue_lengths[p] and port.is_paused(p)
                for p in range(N_PRIORITIES)
            )
            tx = port.stats.total_tx_packets
            if not blocked or tx != state[1]:
                state[0], state[1], state[2] = None, tx, False
                continue
            if state[0] is None:
                state[0] = now
            elif now - state[0] >= self.max_stall_ns and not state[2]:
                state[2] = True
                report(
                    port.name,
                    "paused with queued data and no transmissions for %s "
                    "(no resume, no watchdog)" % fmt_time(now - state[0]),
                )


class LosslessQueueAgeAuditor:
    """No packet older than ``max_age_ns`` in a lossless queue.

    Age is per hop (stamped at enqueue), so steady retransmission traffic
    never trips this; only a queue that has genuinely stopped draining
    does -- the tail-side signature of a deadlock or storm.  Latches one
    violation per overage episode.
    """

    invariant = "lossless-queue-age"

    def __init__(self, device, max_age_ns=5 * MS):
        self.device = device
        self.max_age_ns = max_age_ns
        self._reported = {}  # port.index -> bool

    def audit(self, now, report):
        device = self.device
        pfc = getattr(device, "pfc_config", None)
        if pfc is None:
            return
        lossless_disabled = getattr(device, "lossless_disabled", None)
        for port in device.ports:
            if lossless_disabled is not None and lossless_disabled(port):
                self._reported[port.index] = False
                continue
            worst = None
            for priority, _packet, _meta, enqueued_ns in port.iter_entries():
                if not pfc.is_lossless(priority):
                    continue
                age = now - enqueued_ns
                if age > self.max_age_ns and (worst is None or age > worst):
                    worst = age
            if worst is None:
                self._reported[port.index] = False
            elif not self._reported.get(port.index):
                self._reported[port.index] = True
                report(
                    port.name,
                    "lossless packet stuck for %s (limit %s)"
                    % (fmt_time(worst), fmt_time(self.max_age_ns)),
                )


class AuditorRegistry:
    """Periodically runs registered auditors against live component state."""

    def __init__(self, sim, interval_ns=100 * US, mode="record", name="audit"):
        if mode not in ("record", "raise"):
            raise ValueError("mode must be 'record' or 'raise', got %r" % (mode,))
        self.sim = sim
        self.interval_ns = interval_ns
        self.mode = mode
        self.name = name
        self.violations = []
        self.ticks = 0
        self._auditors = []
        self._timer = Timer(sim, self._tick, name="%s.tick" % name)

    def register(self, auditor):
        self._auditors.append(auditor)
        return auditor

    def start(self):
        """Begin periodic auditing (first tick one interval from now)."""
        self._timer.start(self.interval_ns)
        return self

    def stop(self):
        self._timer.cancel()

    @property
    def running(self):
        return self._timer.armed

    def _tick(self):
        self._timer.start(self.interval_ns)
        self.audit_now()

    def audit_now(self):
        """Run every auditor once, immediately.  Returns new violations."""
        now = self.sim.now
        new = []
        for auditor in self._auditors:
            invariant = auditor.invariant

            def report(subject, detail, _invariant=invariant):
                new.append(Violation(now, _invariant, subject, detail))

            auditor.audit(now, report)
        self.ticks += 1
        self.violations.extend(new)
        if new and self.mode == "raise":
            raise InvariantViolation(
                "%d invariant violation(s) at %s:\n%s"
                % (len(new), fmt_time(now), "\n".join("  %r" % v for v in new))
            )
        return new

    @property
    def violation_count(self):
        return len(self.violations)

    @property
    def clean(self):
        return not self.violations

    def violations_for(self, invariant):
        return [v for v in self.violations if v.invariant == invariant]

    def violations_in_class(self, invariants):
        """Violations whose invariant is in ``invariants`` (e.g. the
        :data:`CONSERVATION_INVARIANTS` vs :data:`LIVENESS_INVARIANTS`
        split the validation oracles judge separately)."""
        wanted = set(invariants)
        return [v for v in self.violations if v.invariant in wanted]

    def tripped_invariants(self):
        """Names of invariants with at least one violation, first-trip order."""
        names = []
        for violation in self.violations:
            if violation.invariant not in names:
                names.append(violation.invariant)
        return names

    def summary(self):
        if self.clean:
            return "audit clean (%d ticks)" % self.ticks
        return "audit: %d violation(s) over %d ticks [%s]" % (
            self.violation_count,
            self.ticks,
            ", ".join(self.tripped_invariants()),
        )

    def __repr__(self):
        return "AuditorRegistry(%s, %d auditors, %s)" % (
            self.name,
            len(self._auditors),
            self.summary(),
        )


def install_default_auditors(
    fabric,
    interval_ns=100 * US,
    mode="record",
    max_stall_ns=2 * MS,
    max_age_ns=5 * MS,
):
    """An :class:`AuditorRegistry` covering every device in ``fabric``.

    Registers buffer conservation + pause liveness + queue age on every
    switch, rx-buffer conservation + tx ready-set completeness + pause
    liveness + queue age on every NIC, and fabric-wide PSN
    monotonicity.  Call ``.start()`` on the
    returned registry (not started automatically so tests can also drive
    ``audit_now`` by hand).
    """
    registry = AuditorRegistry(fabric.sim, interval_ns=interval_ns, mode=mode)
    for switch in fabric.switches:
        registry.register(BufferConservationAuditor(switch))
        registry.register(PauseProgressAuditor(switch, max_stall_ns=max_stall_ns))
        registry.register(LosslessQueueAgeAuditor(switch, max_age_ns=max_age_ns))
    for host in fabric.hosts:
        registry.register(NicRxConservationAuditor(host.nic))
        registry.register(NicTxReadyAuditor(host.nic))
        registry.register(PauseProgressAuditor(host.nic, max_stall_ns=max_stall_ns))
        registry.register(LosslessQueueAgeAuditor(host.nic, max_age_ns=max_age_ns))
    registry.register(PsnMonotonicityAuditor(fabric))
    return registry

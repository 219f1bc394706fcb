"""Egress ports: per-priority queues, PFC pause state, scheduling.

A :class:`Port` is the transmit side of one device interface.  It owns:

* eight data queues (one per 802.1p priority), matching the "up to eight
  queues, each queue maps to a priority" of the paper's section 2;
* one control queue with absolute precedence, used for PFC pause frames --
  MAC control frames are never themselves subject to PFC;
* the 802.1Qbb pause state machine: a received pause frame suspends the
  named priorities for its quanta-encoded duration (refreshable), a
  zero-quanta frame resumes them immediately;
* a pluggable scheduler (strict priority, or DWRR for the paper's
  "different bandwidth reservations for different queues").

The port never decides *what* to enqueue -- devices do.  It reports every
dequeue (and every head-of-line drop of a flood copy) back to its device so
shared-buffer accounting stays exact.
"""

import collections

from repro.packets.pause import N_PRIORITIES, pause_quanta_to_ns
from repro.sim.timer import Timer
from repro.sim.units import serialization_delay_ns
from repro.obs import TELEMETRY as _TELEMETRY
from repro.obs import TRACE as _TRACE


#: Strict-priority service order.
_DESCENDING = tuple(range(N_PRIORITIES - 1, -1, -1))


class PortStats:
    """Per-port counters (section 5.2's monitoring feeds off these)."""

    __slots__ = (
        "tx_packets",
        "tx_bytes",
        "rx_packets",
        "rx_bytes",
        "pause_tx",
        "pause_rx",
        "resume_tx",
        "resume_rx",
        "head_drops",
        "paused_ns",
        "_paused_since",
    )

    def __init__(self):
        self.tx_packets = [0] * N_PRIORITIES
        self.tx_bytes = [0] * N_PRIORITIES
        self.rx_packets = [0] * N_PRIORITIES
        self.rx_bytes = [0] * N_PRIORITIES
        self.pause_tx = 0
        self.pause_rx = 0
        self.resume_tx = 0
        self.resume_rx = 0
        self.head_drops = 0
        # Cumulative time (ns) during which at least one priority was
        # paused: the paper's "pause intervals" metric, which "can reveal
        # the severity of the congestion more accurately" than counts.
        self.paused_ns = 0
        self._paused_since = None

    @property
    def total_tx_packets(self):
        return sum(self.tx_packets)

    @property
    def total_tx_bytes(self):
        return sum(self.tx_bytes)

    @property
    def total_rx_bytes(self):
        return sum(self.rx_bytes)


class StrictPriorityScheduler:
    """Always serves the highest-numbered eligible priority first."""

    __slots__ = ()

    def pick(self, port):
        # ``Port._try_send`` inlines this loop when the scheduler is
        # exactly this type; a subclass is served through here.
        queues = port._queues
        paused_until = port._paused_until
        now = port.sim.now
        for priority in _DESCENDING:
            if queues[priority] and paused_until[priority] <= now:
                return priority
        return None


class DwrrScheduler:
    """Deficit weighted round robin across eligible priorities.

    ``weights`` maps priority -> weight; unlisted priorities get weight 1.
    This approximates the ETS bandwidth reservation the paper configures
    between the real-time class, the bulk class and the TCP class.
    """

    __slots__ = ("_weights", "_quantum", "_deficits", "_topped_up", "_cursor")

    def __init__(self, weights=None, quantum_bytes=1600):
        self._weights = dict(weights or {})
        self._quantum = quantum_bytes
        self._deficits = [0] * N_PRIORITIES
        self._topped_up = [False] * N_PRIORITIES
        self._cursor = 0

    def weight(self, priority):
        return self._weights.get(priority, 1)

    def pick(self, port):
        queues = port._queues
        paused_until = port._paused_until
        now = port.sim.now
        deficits = self._deficits
        topped_up = self._topped_up
        if not any(
            queues[p] and paused_until[p] <= now for p in range(N_PRIORITIES)
        ):
            return None
        # Classic DWRR: stay on the cursor queue while its deficit covers
        # head packets; on moving past a queue, clear its top-up flag so
        # it earns a fresh quantum on the next visit.  An idle queue's
        # deficit resets (it must not hoard credit while empty).
        for _ in range(64 * N_PRIORITIES):
            priority = self._cursor
            queue = queues[priority]
            if queue and paused_until[priority] <= now:
                if not topped_up[priority]:
                    deficits[priority] += self._quantum * self.weight(priority)
                    topped_up[priority] = True
                head_bytes = queue[0][0].size_bytes
                if deficits[priority] >= head_bytes:
                    deficits[priority] -= head_bytes
                    return priority
            else:
                deficits[priority] = 0
            topped_up[priority] = False
            self._cursor = (self._cursor + 1) % N_PRIORITIES
        # Unreachable for sane quanta; serve any eligible queue rather
        # than stall the port.
        for priority in range(N_PRIORITIES):
            if queues[priority] and paused_until[priority] <= now:
                deficits[priority] = 0
                return priority
        return None


class Port:
    """One device interface: egress queues + PFC transmit-side state.

    Devices interact with the port through:

    * :meth:`enqueue` / :meth:`enqueue_control` to queue frames;
    * ``on_dequeue(packet, meta, dropped_at_head)`` -- callback invoked
      whenever an entry leaves the queues (transmitted or head-dropped),
      used for shared-buffer release;
    * :meth:`receive_pause` -- called by the device when a PFC pause frame
      arrives on this interface.

    ``drop_flood_at_head`` models the ASIC behaviour central to the
    section 4.2 deadlock: flood copies reaching the head of a routed
    (uplink) port's queue are discarded "since the destination MAC does
    not match" -- but *only once they reach the head*; while the port is
    paused they sit in the queue holding buffer.
    """

    __slots__ = (
        "sim",
        "device",
        "index",
        "name",
        "link",
        "peer",
        "peer_deliver",
        "drop_flood_at_head",
        "scheduler",
        "stats",
        "on_dequeue",
        "is_server_facing",
        "vlan_port_mode",
        "frozen",
        "_queues",
        "_queue_bytes",
        "_control_queue",
        "_paused_until",
        "_busy",
        "_total_packets",
        "_total_bytes",
        "_wake_timer",
    )

    def __init__(self, sim, device, index, name=None, drop_flood_at_head=False):
        self.sim = sim
        self.device = device
        self.index = index
        self.name = name or "%s.p%d" % (getattr(device, "name", "dev"), index)
        self.link = None
        self.peer = None  # peer Port, set by Link
        # The far device's handle_packet bound to the far port, set by
        # Link: what a frame's arrival event calls.
        self.peer_deliver = None
        self.drop_flood_at_head = drop_flood_at_head
        self.scheduler = StrictPriorityScheduler()
        self.stats = PortStats()
        self.on_dequeue = None
        # Set by Switch.add_server_port / add_uplink_port; the defaults
        # describe a plain (host-side) interface.
        self.is_server_facing = False
        self.vlan_port_mode = None

        # Per-priority deques of (packet, meta, enqueued_ns).
        self._queues = [collections.deque() for _ in range(N_PRIORITIES)]
        self._queue_bytes = [0] * N_PRIORITIES
        self._control_queue = collections.deque()
        self._paused_until = [0] * N_PRIORITIES
        self._busy = False
        # Running totals across all data queues, maintained by
        # enqueue/_try_send so the hot accessors below are O(1).
        self._total_packets = 0
        self._total_bytes = 0
        self._wake_timer = Timer(sim, self._try_send, name="%s.wake" % self.name)
        # When True, egress transmission is administratively frozen (used
        # to model a dead device still holding the link).
        self.frozen = False

    # -- introspection -------------------------------------------------------

    @property
    def connected(self):
        return self.link is not None

    @property
    def queue_lengths(self):
        """Packets queued per priority."""
        return [len(q) for q in self._queues]

    @property
    def queued_bytes(self):
        """Bytes queued per priority."""
        return list(self._queue_bytes)

    @property
    def total_queued_bytes(self):
        return self._total_bytes

    @property
    def total_queued_packets(self):
        return self._total_packets

    def iter_entries(self):
        """Yield ``(priority, packet, meta, enqueued_ns)`` for every queued
        data frame.  Read-only view used by the invariant auditors."""
        for priority, queue in enumerate(self._queues):
            for packet, meta, enqueued_ns in queue:
                yield priority, packet, meta, enqueued_ns

    def is_paused(self, priority):
        """True while PFC holds ``priority`` paused on this port."""
        return self._paused_until[priority] > self.sim.now

    # -- enqueue -------------------------------------------------------------

    def enqueue(self, packet, priority, meta=None):
        """Queue a data frame at ``priority``; kicks the transmitter."""
        if not 0 <= priority < N_PRIORITIES:
            raise ValueError("priority out of range: %r" % (priority,))
        nbytes = packet.size_bytes
        self._queues[priority].append((packet, meta, self.sim.now))
        self._queue_bytes[priority] += nbytes
        self._total_packets += 1
        self._total_bytes += nbytes
        if _TRACE.enabled:
            _TRACE.session.on_port_enqueue(self, packet, priority)
        if not self._busy:
            self._try_send()

    def enqueue_control(self, packet):
        """Queue a MAC control frame (pause); precedes all data, never
        itself paused by PFC."""
        self._control_queue.append(packet)
        self._try_send()

    # -- PFC receive side ----------------------------------------------------

    def receive_pause(self, frame):
        """Apply a received PFC pause frame to this port's transmitter.

        Non-zero quanta (re)start the pause clock for the named priority;
        zero quanta resume it immediately (XON).
        """
        if self.link is None:
            raise RuntimeError("pause received on disconnected port %s" % self.name)
        now = self.sim.now
        self._sync_pause_accounting()
        got_pause = False
        for priority, quanta in enumerate(frame.quanta):
            if quanta is None:
                continue
            if quanta == 0:
                self._paused_until[priority] = now
                self.stats.resume_rx += 1
            else:
                duration = pause_quanta_to_ns(quanta, self.link.rate_bps)
                self._paused_until[priority] = now + duration
                self.stats.pause_rx += 1
                got_pause = True
                if _TELEMETRY.enabled:
                    _TELEMETRY.session.on_pause_rx(self, duration)
        self._sync_pause_accounting()
        if _TRACE.enabled:
            _TRACE.session.on_pause_rx_port(self, frame)
        if got_pause:
            self._arm_wake()
        else:
            self._try_send()

    def force_resume_all(self):
        """Administratively clear all pause state (watchdog action)."""
        self._sync_pause_accounting()
        for priority in range(N_PRIORITIES):
            self._paused_until[priority] = self.sim.now
        self._sync_pause_accounting()
        if _TRACE.enabled:
            _TRACE.session.on_force_resume(self)
        self._try_send()

    def _sync_pause_accounting(self):
        """Fold elapsed paused time into ``stats.paused_ns``.

        Idempotent: an open interval is settled up to now (or up to the
        quanta expiry if that already passed) and re-opened while the
        port remains paused.  Accounting is lazy, so accessors call this
        too -- a pause that ends by expiry has no event of its own.
        """
        stats = self.stats
        now = self.sim.now
        paused_until = self._paused_until
        since = stats._paused_since
        if since is None:
            # Fast path (the common case: port was not in a pause
            # interval): open one only if some priority is paused now.
            for deadline in paused_until:
                if deadline > now:
                    stats._paused_since = now
                    return
            return
        end = min(now, max(paused_until))
        if end > since:
            stats.paused_ns += end - since
        for deadline in paused_until:
            if deadline > now:
                stats._paused_since = now
                return
        stats._paused_since = None

    def paused_interval_ns(self):
        """Cumulative time this port spent paused (the section 5.2
        "pause intervals" metric)."""
        self._sync_pause_accounting()
        return self.stats.paused_ns

    # -- transmit machinery --------------------------------------------------

    def _arm_wake(self):
        """Schedule a transmit attempt at the earliest pause expiry among
        non-empty queues (if any)."""
        now = self.sim.now
        queues = self._queues
        paused_until = self._paused_until
        earliest = None
        for priority in range(N_PRIORITIES):
            deadline = paused_until[priority]
            if deadline > now and queues[priority]:
                if earliest is None or deadline < earliest:
                    earliest = deadline
        if earliest is not None:
            self._wake_timer.start_at(earliest)

    def _try_send(self, tx_done=False):
        """Start the next transmission if the port is idle.  ``tx_done``
        is the tx-complete event of the previous frame: it frees the
        transmitter first."""
        if tx_done:
            self._busy = False
        elif self._busy:
            return
        link = self.link
        if link is None or self.frozen:
            return
        if self._control_queue:
            # Control frames first, always.
            packet = self._control_queue.popleft()
            priority = None
        else:
            # Strict priority (the common scheduler) is pure and is inlined
            # below -- one attribute walk instead of a method call per frame;
            # DWRR keeps per-pick deficit state and goes through pick().
            fast_sp = type(self.scheduler) is StrictPriorityScheduler
            while True:
                if not self._total_packets:
                    # Nothing queued: nothing to pick, nothing to wake for.
                    self._sync_pause_accounting()
                    return
                if fast_sp:
                    queues = self._queues
                    paused_until = self._paused_until
                    now = self.sim.now
                    priority = None
                    for p in _DESCENDING:
                        if queues[p] and paused_until[p] <= now:
                            priority = p
                            break
                else:
                    priority = self.scheduler.pick(self)
                if priority is None:
                    # Everything queued is paused; wake on expiry.
                    self._arm_wake()
                    self._sync_pause_accounting()
                    return
                packet, meta, _enqueued_ns = self._queues[priority].popleft()
                nbytes = packet.size_bytes
                self._queue_bytes[priority] -= nbytes
                self._total_packets -= 1
                self._total_bytes -= nbytes
                if self.drop_flood_at_head and meta is not None and meta.flood_copy:
                    # Drop at head of queue (paper section 4.2): frees
                    # buffer only now, after occupying it the whole wait.
                    self.stats.head_drops += 1
                    if self.on_dequeue is not None:
                        self.on_dequeue(packet, meta, True)
                    continue
                break
        # Start the transmission (marking the port busy) *before*
        # notifying the device: the dequeue callback may refill the
        # queue synchronously, which must not re-enter transmission.
        self._busy = True
        stats = self.stats
        if packet.pause is not None:
            if packet.pause.paused_priorities:
                stats.pause_tx += 1
            else:
                stats.resume_tx += 1
        elif priority is not None:
            stats.tx_packets[priority] += 1
            stats.tx_bytes[priority] += nbytes
        serialization_ns = link.transmit(self, packet)
        self.sim.schedule1(serialization_ns, self._try_send, True)
        if priority is not None and self.on_dequeue is not None:
            self.on_dequeue(packet, meta, False)

    def __repr__(self):
        return "Port(%s, queued=%dB%s)" % (
            self.name,
            self.total_queued_bytes,
            ", paused" if max(self._paused_until) > self.sim.now else "",
        )

"""The per-hop switch walk against a verbatim copy of the previous one.

`Switch.handle_packet` -> admit -> PFC decision -> `Port.enqueue` ->
`_try_send` -> `Link.transmit` -> `_on_port_dequeue` -> release -> PFC
decision is the packet tier's inner loop, and it was rewritten as one
walk over row-indexed PG state (ISSUE 18).  The rewrite must be
invisible: same counters, same bytes in every PG, same frames on every
wire at the same instants, same number of engine events -- that is what
keeps every determinism fingerprint where it was.

The reference below is the walk as it stood at commit d04fed1, copied
verbatim (classes renamed ``Reference*`` / ``_Ref*``, methods that are
not on the walk trimmed): tuple-keyed ``_pgs`` / ``_signalers`` dicts,
``_ingress_data`` / ``_forward`` / ``_admit`` / ``_charge``,
``_QueueEntry`` / ``_EgressMeta`` wrappers, ``_transmit``, the signaler
asked after every lossless admit and release.  One deliberate
difference, marked ``[stranded-pause fix]`` where it sits: a PG that is
asserting pause when its priority stops being lossless releases the
pause instead of refreshing it forever.  That is a bug fix this PR
makes on purpose (``tests/test_deployment.py`` pins it through a
rollback); it is applied to both sides so the programs may replace
``pfc_config`` at any moment.

Programs come from `tests.strategies.switch_walk_programs`: one four-
to-eight-port switch wired to stub stations; frames with lossless and
lossy priorities under DSCP and VLAN classification; local, routed,
multi-path, no-route, ARP-miss and incomplete-ARP destinations (flood
and drop-on-incomplete); TTL 1; trunk / access port modes; the lossy
egress cap and ECN armed; a watchdog-disabled port; pause and resume
frames arriving mid-burst; ``pfc_config`` replaced and ``buffer.config``
drifted between steps; DWRR as well as strict priority; ``sim.run`` to
interleaved horizons.  After every ``run`` the two worlds must be
``==`` on `SwitchCounters` (every drop key), every `PortStats` list,
every PG's ``(occupancy, headroom_used, paused)``, the buffer
aggregates, the ordered ``(time, port, frame)`` log of every station
(pause and resume frames included) and ``sim.events_fired``.

The mutant the random programs are there to kill, found by search and
pinned in `TestPinnedPrograms.test_admit_charges_the_size_after_the_vlan_strip`:
**charging the pre-strip size after a VLAN strip**.  An L3-routed frame
loses its 802.1Q tag before admission (section 3), so the PG is charged
four bytes less than `PortStats.rx_bytes` counted; a fused walk that
reads ``size_bytes`` once at the top over-charges by four bytes per
frame, which no counter shows until a threshold is crossed one frame
early.  Its sibling -- skipping the PFC evaluation of an already-paused
PG on admit (the dynamic threshold moves under it: other PGs draining
can lift XON above a PG that is still filling) -- is pinned next to it.
"""

import collections
import random

from hypothesis import given, settings

from repro.net.device import Device
from repro.net.link import Link
from repro.net.port import DwrrScheduler, PortStats, StrictPriorityScheduler
from repro.packets.ethernet import VlanTag
from repro.packets.ip import ECN_ECT0, ECN_NOT_ECT, Ipv4Header
from repro.packets.packet import Packet, PriorityMode, compile_priority_resolver
from repro.packets.pause import N_PRIORITIES, PfcPauseFrame, pause_quanta_to_ns
from repro.packets.rocev2 import ROCEV2_UDP_PORT, BaseTransportHeader, BthOpcode
from repro.packets.udp import UdpHeader
from repro.sim import Simulator
from repro.sim.timer import Timer
from repro.sim.units import MS, gbps
from repro.switch.buffer import BufferConfig, PgState
from repro.switch.ecmp import ecmp_seed as _name_seed
from repro.switch.ecmp import ecmp_select
from repro.switch.ecn import EcnConfig
from repro.switch.forwarding import ForwardingTables
from repro.switch.pfc import PfcConfig
from repro.switch.switch import Switch, SwitchCounters, _clone_for_flood
from repro.obs import TELEMETRY as _TELEMETRY
from repro.obs import TRACE as _TRACE
from tests.strategies import switch_walk_programs

# =============================================================================
# The reference: the walk at d04fed1, verbatim.
# =============================================================================

# -- net/port.py @ d04fed1: ReferenceDwrrScheduler, _RefQueueEntry, ReferencePort ----------

class ReferenceDwrrScheduler:
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
                head_bytes = queue[0].packet.size_bytes
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


class _RefQueueEntry:
    __slots__ = ("packet", "meta", "enqueued_ns")

    def __init__(self, packet, meta, enqueued_ns):
        self.packet = packet
        self.meta = meta
        self.enqueued_ns = enqueued_ns


class ReferencePort:
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
        "_tx_complete_ref",
    )

    def __init__(self, sim, device, index, name=None, drop_flood_at_head=False):
        self.sim = sim
        self.device = device
        self.index = index
        self.name = name or "%s.p%d" % (getattr(device, "name", "dev"), index)
        self.link = None
        self.peer = None  # peer ReferencePort, set by Link
        self.peer_deliver = None  # bound peer.deliver, cached by Link
        self.drop_flood_at_head = drop_flood_at_head
        self.scheduler = StrictPriorityScheduler()
        self.stats = PortStats()
        self.on_dequeue = None
        # Set by Switch.add_server_port / add_uplink_port; the defaults
        # describe a plain (host-side) interface.
        self.is_server_facing = False
        self.vlan_port_mode = None

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
        self._tx_complete_ref = self._tx_complete
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
            for entry in queue:
                yield priority, entry.packet, entry.meta, entry.enqueued_ns

    def head_packet_bytes(self, priority):
        """Wire size of the head packet of ``priority`` (0 when empty)."""
        queue = self._queues[priority]
        if not queue:
            return 0
        return queue[0].packet.size_bytes

    def is_paused(self, priority):
        """True while PFC holds ``priority`` paused on this port."""
        return self._paused_until[priority] > self.sim.now

    @property
    def any_paused(self):
        now = self.sim.now
        for deadline in self._paused_until:
            if deadline > now:
                return True
        return False

    def pause_remaining_ns(self, priority):
        """Nanoseconds of pause left for ``priority`` (0 if unpaused)."""
        return max(0, self._paused_until[priority] - self.sim.now)

    # -- enqueue -------------------------------------------------------------

    def enqueue(self, packet, priority, meta=None):
        """Queue a data frame at ``priority``; kicks the transmitter."""
        if not 0 <= priority < N_PRIORITIES:
            raise ValueError("priority out of range: %r" % (priority,))
        nbytes = packet.size_bytes
        self._queues[priority].append(_RefQueueEntry(packet, meta, self.sim.now))
        self._queue_bytes[priority] += nbytes
        self._total_packets += 1
        self._total_bytes += nbytes
        if _TRACE.enabled:
            _TRACE.session.on_port_enqueue(self, packet, priority)
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

    def _try_send(self):
        if self._busy or self.link is None or self.frozen:
            return
        # Control frames first, always.
        if self._control_queue:
            packet = self._control_queue.popleft()
            self._transmit(packet, priority=None)
            return
        # Strict priority (the common scheduler) is pure and is inlined
        # below -- one attribute walk instead of a method call per frame;
        # DWRR keeps per-pick deficit state and goes through pick().
        fast_sp = type(self.scheduler) is StrictPriorityScheduler
        while True:
            if fast_sp:
                queues = self._queues
                paused_until = self._paused_until
                now = self.sim.now
                priority = None
                for p in range(N_PRIORITIES - 1, -1, -1):
                    if queues[p] and paused_until[p] <= now:
                        priority = p
                        break
            else:
                priority = self.scheduler.pick(self)
            if priority is None:
                # Everything eligible is empty or paused; wake on expiry.
                self._arm_wake()
                self._sync_pause_accounting()
                return
            entry = self._queues[priority].popleft()
            nbytes = entry.packet.size_bytes
            self._queue_bytes[priority] -= nbytes
            self._total_packets -= 1
            self._total_bytes -= nbytes
            meta = entry.meta
            if (
                self.drop_flood_at_head
                and meta is not None
                and meta.flood_copy
            ):
                # Drop at head of queue (paper section 4.2): frees buffer
                # only now, after having occupied it the whole wait.
                self.stats.head_drops += 1
                if self.on_dequeue is not None:
                    self.on_dequeue(entry.packet, meta, True)
                continue
            # Start the transmission (marking the port busy) *before*
            # notifying the device: the dequeue callback may refill the
            # queue synchronously, which must not re-enter transmission.
            self._transmit(entry.packet, priority)
            if self.on_dequeue is not None:
                self.on_dequeue(entry.packet, meta, False)
            return

    def _transmit(self, packet, priority):
        self._busy = True
        stats = self.stats
        if packet.pause is not None:
            if packet.pause.paused_priorities:
                stats.pause_tx += 1
            else:
                stats.resume_tx += 1
        elif priority is not None:
            stats.tx_packets[priority] += 1
            stats.tx_bytes[priority] += packet.size_bytes
        serialization_ns = self.link.transmit(self, packet)
        self.sim.schedule0(serialization_ns, self._tx_complete_ref)

    def _tx_complete(self):
        self._busy = False
        self._try_send()

    def deliver(self, packet):
        """Called by the link when a frame arrives at this port; hands the
        frame to the owning device."""
        self.device.handle_packet(self, packet)

    def record_rx(self, packet, priority):
        """Account a received data frame (devices call this after
        classification, since priority depends on device config)."""
        self.stats.rx_packets[priority] += 1
        self.stats.rx_bytes[priority] += packet.size_bytes

    def __repr__(self):
        return "ReferencePort(%s, queued=%dB%s)" % (
            self.name,
            self.total_queued_bytes,
            ", paused" if self.any_paused else "",
        )


# -- switch/buffer.py @ d04fed1: ReferenceSharedBuffer ----------

class ReferenceSharedBuffer:
    """Ingress-accounted shared buffer for one switch.

    The buffer does not know about pause frames; it returns *decisions*
    (:meth:`admit`, :meth:`should_pause`, :meth:`should_resume`) and the
    switch acts on them.  Lossless PGs must have been declared via
    ``lossless`` at admit time so headroom accounting applies.
    """

    def __init__(self, config, n_ports, lossless_priorities=(3,)):
        self.config = config
        self.n_ports = n_ports
        self.lossless_priorities = frozenset(lossless_priorities)
        self._pgs = {}
        # Headroom and guaranteed pools are carved out of the total;
        # what remains is the shared pool that dynamic alpha divides.
        n_lossless_pgs = n_ports * len(self.lossless_priorities)
        self.headroom_total = config.headroom_per_pg_bytes * n_lossless_pgs
        self.shared_size = (
            config.total_bytes
            - self.headroom_total
            - config.guaranteed_per_pg_bytes * n_ports * 8
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
        # Counters.
        self.lossy_drops = 0
        self.headroom_overflow_drops = 0
        self.peak_shared_in_use = 0
        # Telemetry attribution: the owning switch's name (set by
        # ``Switch.finalize``; "" for buffers built standalone in tests).
        self.owner_name = ""

    def pg(self, port_idx, priority):
        key = (port_idx, priority)
        state = self._pgs.get(key)
        if state is None:
            state = PgState()
            self._pgs[key] = state
        return state

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
        headroom this never happens, and tests assert it doesn't).
        """
        # Hot path: every forwarded packet passes through here once.  The
        # config object is read afresh on every call -- fault injection
        # (``drift_buffer_alpha``) swaps scalar values under us and the
        # next admit must already see them, so nothing here may be cached
        # across calls.
        state = self._pgs.get((port_idx, priority))
        if state is None:
            state = self.pg(port_idx, priority)
        config = self.config
        guaranteed = config.guaranteed_per_pg_bytes
        occupancy = state.occupancy
        if occupancy + nbytes <= guaranteed:
            over_threshold = False
        else:
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
            over_threshold = shared_occ + nbytes > threshold
        if not over_threshold:
            self._charge(state, nbytes)
            return True
        if not lossless:
            self.lossy_drops += 1
            return False
        # Lossless and over threshold: spill into this PG's headroom.
        if state.headroom_used + nbytes > config.headroom_per_pg_bytes:
            self.headroom_overflow_drops += 1
            if _TELEMETRY.enabled:
                _TELEMETRY.session.on_buffer_drop(self.owner_name, True)
            return False
        state.headroom_used += nbytes
        self.headroom_in_use += nbytes
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_headroom_spill(self.owner_name, nbytes)
        return True

    def _charge(self, state, nbytes):
        guaranteed = self.config.guaranteed_per_pg_bytes
        before = max(0, state.occupancy - guaranteed)
        state.occupancy += nbytes
        after = max(0, state.occupancy - guaranteed)
        self.shared_in_use += after - before
        if self.shared_in_use > self.peak_shared_in_use:
            self.peak_shared_in_use = self.shared_in_use

    def release(self, port_idx, priority, nbytes):
        """Return ``nbytes`` of ``(port_idx, priority)`` to the pool.

        Headroom usage is drained first (LIFO relative to admission order
        does not matter for totals).
        """
        state = self._pgs.get((port_idx, priority))
        if state is None:
            state = self.pg(port_idx, priority)
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
            raise RuntimeError(
                "buffer release underflow at pg(%d, %d): %d > %d"
                % (port_idx, priority, remainder, occupancy)
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
        state = self._pgs.get((port_idx, priority))
        if state is None:
            state = self.pg(port_idx, priority)
        return self.evaluate_pause_state(state)

    def evaluate_pause_state(self, state):
        """:meth:`evaluate_pause` for a caller already holding the
        :class:`PgState` (PG objects live as long as the buffer, so
        signalers cache them to skip the per-event dict lookup)."""
        if not state.paused:
            if state.headroom_used > 0:
                return 1
            config = self.config
            guaranteed = config.guaranteed_per_pg_bytes
            shared_occ = state.occupancy - guaranteed
            if shared_occ < 0:
                shared_occ = 0
            alpha = config.alpha
            if alpha is not None:
                threshold = int(alpha * (self.shared_size - self.shared_in_use))
                if threshold < 0:
                    threshold = 0
            else:
                threshold = config.xoff_static_bytes
            return 1 if shared_occ > threshold else 0
        if state.headroom_used > 0:
            return 0
        config = self.config
        guaranteed = config.guaranteed_per_pg_bytes
        shared_occ = state.occupancy - guaranteed
        if shared_occ < 0:
            shared_occ = 0
        alpha = config.alpha
        if alpha is not None:
            threshold = int(alpha * (self.shared_size - self.shared_in_use))
            if threshold < 0:
                threshold = 0
        else:
            threshold = config.xoff_static_bytes
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
        return sum(s.occupancy + s.headroom_used for s in self._pgs.values())

    def __repr__(self):
        return "ReferenceSharedBuffer(shared %d/%d B, threshold=%dB)" % (
            self.shared_in_use,
            self.shared_size,
            self.threshold(),
        )


# -- switch/pfc.py @ d04fed1: ReferencePauseSignaler ----------

class ReferencePauseSignaler:
    """Drives pause/resume frames for one ingress (port, priority) PG.

    Owned by the switch; consults the shared buffer's decisions and emits
    control frames out of the *ingress* port (back toward the sender).
    """

    __slots__ = (
        "sim",
        "switch",
        "port",
        "priority",
        "_refresh",
        "_buffer",
        "_state",
        "pauses_sent",
        "resumes_sent",
    )

    def __init__(self, sim, switch, port, priority):
        self.sim = sim
        self.switch = switch
        self.port = port
        self.priority = priority
        self._refresh = Timer(
            sim, self._on_refresh, name="%s.pfc%d" % (port.name, priority)
        )
        # Cached (buffer, PgState) pair; re-resolved if the switch ever
        # rebuilds its buffer.
        self._buffer = None
        self._state = None
        self.pauses_sent = 0
        self.resumes_sent = 0

    @property
    def _pg_state(self):
        buffer = self.switch.buffer
        if buffer is not self._buffer:
            self._buffer = buffer
            self._state = buffer.pg(self.port.index, self.priority)
        return self._state

    def evaluate(self):
        """Re-check buffer state; assert or release pause as needed."""
        # One combined buffer query (this runs on every lossless admit
        # and release); equivalent to should_pause / elif should_resume.
        state = self._pg_state
        action = self._buffer.evaluate_pause_state(state)
        if action > 0:
            state.paused = True
            self._buffer.paused_pgs += 1
            self._send_pause()
        elif action < 0:
            state.paused = False
            self._buffer.paused_pgs -= 1
            self._refresh.cancel()
            self._send_resume()

    def _send_pause(self):
        quanta = self.switch.pfc_config.pause_quanta
        frame = PfcPauseFrame({self.priority: quanta})
        if _TRACE.enabled:
            _TRACE.session.on_switch_pause_emit(self, frame)
        self._emit(frame)
        self.pauses_sent += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_pfc_pause(self.switch)
        if self.port.link is not None:
            duration = pause_quanta_to_ns(quanta, self.port.link.rate_bps)
            self._refresh.start(max(1, duration // 2))

    def _send_resume(self):
        frame = PfcPauseFrame.resume([self.priority])
        if _TRACE.enabled:
            _TRACE.session.on_switch_resume_emit(self, frame)
        self._emit(frame)
        self.resumes_sent += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_pfc_resume(self.switch)

    def _emit(self, frame):
        if self.port.link is None:
            return
        packet = Packet.pfc_pause(
            dst_mac=0x0180C2000001,  # 802.1Qbb destination group address
            src_mac=self.switch.mac_for_port(self.port),
            pause=frame,
            created_ns=self.sim.now,
        )
        self.port.enqueue_control(packet)

    def _on_refresh(self):
        """Pause about to expire upstream; re-send while still congested."""
        if self._pg_state.paused:
            # [stranded-pause fix] d04fed1 re-sent XOFF unconditionally.
            if self.switch.pfc_config.is_lossless(self.priority):
                self._send_pause()
            else:
                self._pg_state.paused = False
                self._buffer.paused_pgs -= 1
                self._refresh.cancel()
                self._send_resume()

    def stop(self):
        """Stop refreshing (watchdog disabled lossless on this port)."""
        self._refresh.cancel()
        state = self._pg_state
        if state.paused:
            state.paused = False
            self._buffer.paused_pgs -= 1


# -- switch/switch.py @ d04fed1: _RefBufferClaim, _RefEgressMeta, Switch ----------

class _RefBufferClaim:
    """Shared-buffer charge for one admitted packet (refcounted across
    flood copies)."""

    __slots__ = ("port_idx", "priority", "nbytes", "refs")

    def __init__(self, port_idx, priority, nbytes, refs):
        self.port_idx = port_idx
        self.priority = priority
        self.nbytes = nbytes
        self.refs = refs


class _RefEgressMeta:
    """Per-copy egress queue annotation."""

    __slots__ = ("claim", "flood_copy")

    def __init__(self, claim, flood_copy):
        self.claim = claim
        self.flood_copy = flood_copy


class ReferenceSwitch(Device):
    """A shared-buffer, PFC-capable, L3 ECMP switch."""

    def __init__(
        self,
        sim,
        name,
        buffer_config=None,
        pfc_config=None,
        ecn_config=None,
        local_subnet=None,
        ecmp_seed=None,
        mark_rng=None,
        base_mac=None,
        forwarding_kwargs=None,
    ):
        super().__init__(sim, name)
        self.buffer_config = buffer_config or BufferConfig()
        self.pfc_config = pfc_config or PfcConfig()
        self.ecn_config = ecn_config or EcnConfig(enabled=False)
        self.tables = ForwardingTables(
            sim, local_subnet=local_subnet, **(forwarding_kwargs or {})
        )
        self.ecmp_seed = _name_seed(name) if ecmp_seed is None else ecmp_seed
        self._mark_rng = mark_rng
        self.base_mac = base_mac if base_mac is not None else (_name_seed(name) & 0xFFFF) << 16
        self.counters = SwitchCounters()
        self.buffer = None  # built lazily once port count is known
        self._signalers = {}
        self._watchdogs = {}
        self._lossless_disabled_ports = set()
        self._server_port_idxs = set()
        # Experiment hook: callable(packet) -> True to drop at ingress.
        self.ingress_drop_filter = None
        # Per-config compiled classification caches.  pfc_config objects
        # are replaced wholesale (deployment steps, fault injection),
        # never mutated in place, so the caches key on object identity
        # and recompile the moment a new config is installed.
        self._classify_for = None
        self._classify = None
        self._lossless_set = frozenset()
        # ECMP choice cache: (five_tuple, n_choices) -> index, valid for
        # one seed (bench scenarios re-seed switches before booting).
        self._ecmp_cache = {}
        self._ecmp_cache_seed = None

    def _classifier(self):
        """The compiled ``packet -> priority`` function for the current
        pfc_config (recompiled on config replacement)."""
        pfc = self.pfc_config
        if pfc is not self._classify_for:
            self._classify = compile_priority_resolver(
                pfc.priority_mode,
                dscp_to_priority=pfc.dscp_to_priority,
                default_priority=pfc.default_priority,
            )
            self._lossless_set = (
                pfc.lossless_priorities if pfc.enabled else frozenset()
            )
            self._classify_for = pfc
        return self._classify

    def _lossless(self, priority):
        """Live-config lossless check through the identity-keyed cache."""
        if self.pfc_config is not self._classify_for:
            self._classifier()
        return priority in self._lossless_set

    # -- construction --------------------------------------------------------

    def add_port(self, **kwargs):
        """``Device.add_port``, allocating the reference port."""
        port = ReferencePort(self.sim, self, len(self.ports), **kwargs)
        port.on_dequeue = self._on_port_dequeue
        self.ports.append(port)
        return port

    def add_server_port(self, vlan_port_mode=None):
        """A server-facing (L2 subnet) port.

        ``vlan_port_mode`` is None (no 802.1Q enforcement), ``"access"``
        (untagged only) or ``"trunk"`` (tagged only -- what VLAN-based
        PFC forces, breaking PXE boot per section 3).
        """
        port = self.add_port()
        port.is_server_facing = True
        port.vlan_port_mode = vlan_port_mode
        self._server_port_idxs.add(port.index)
        return port

    def set_server_port_modes(self, vlan_port_mode):
        """Reconfigure the 802.1Q mode of every server-facing port."""
        for idx in self._server_port_idxs:
            self.ports[idx].vlan_port_mode = vlan_port_mode

    def add_uplink_port(self, drop_flood_at_head=True):
        """A routed uplink port.  ``drop_flood_at_head`` reproduces the
        ASIC behaviour of section 4.2: flood copies reaching the head of a
        routed port's queue are dropped because the destination MAC does
        not match."""
        port = self.add_port(drop_flood_at_head=drop_flood_at_head)
        port.is_server_facing = False
        return port

    def finalize(self):
        """Build the shared buffer once all ports exist.  Idempotent."""
        if self.buffer is None:
            self.buffer = ReferenceSharedBuffer(
                self.buffer_config,
                n_ports=len(self.ports),
                lossless_priorities=self.pfc_config.lossless_priorities,
            )
            # Telemetry attributes buffer-level signals to this switch.
            self.buffer.owner_name = self.name
        return self

    def mac_for_port(self, port):
        """The switch's own MAC on ``port`` (pause frame source address)."""
        return self.base_mac + port.index

    def _signaler(self, port, priority):
        key = (port.index, priority)
        signaler = self._signalers.get(key)
        if signaler is None:
            signaler = ReferencePauseSignaler(self.sim, self, port, priority)
            self._signalers[key] = signaler
        return signaler

    # -- receive path --------------------------------------------------------

    def handle_packet(self, port, packet):
        """Device entry point for every frame arriving on ``port``.

        Dispatches pause frames to the port's pause state (unless the
        storm watchdog disabled lossless on that port), ARP to the
        forwarding tables, and data frames into the ingress pipeline
        described in the module docstring."""
        if self.buffer is None:
            self.finalize()
        if packet.is_pause:
            if port.index in self._lossless_disabled_ports:
                # Watchdog tripped: the malfunctioning NIC's pauses are
                # ignored so they cannot propagate into the network.
                self.counters.drops["pause-ignored"] += 1
                return
            port.receive_pause(packet.pause)
            return
        if packet.is_arp:
            self._handle_arp(port, packet)
            return
        self._ingress_data(port, packet)

    def _handle_arp(self, port, packet):
        """Switch-CPU ARP processing: learn, then flood within the subnet."""
        arp = packet.arp
        self.tables.learn_arp(arp.sender_ip, arp.sender_mac)
        self.tables.learn_mac(arp.sender_mac, port.index)
        # Broadcast/flood the ARP to the other server-facing ports (ARP is
        # lossy: "broadcast and multicast packets should not be put into
        # lossless classes", section 4.2).
        for idx in self._server_port_idxs:
            if idx == port.index:
                continue
            egress = self.ports[idx]
            if egress.connected:
                egress.enqueue(packet, self.pfc_config.default_priority, meta=None)

    def _ingress_data(self, port, packet):
        self.counters.rx_packets += 1
        mode = port.vlan_port_mode
        if mode is not None:
            if mode == "trunk" and packet.vlan is None:
                # Trunk ports "can only send packets with VLAN tag" -- an
                # untagged PXE-boot exchange dies right here (section 3).
                self.counters.drops["vlan-port-mode"] += 1
                return
            if mode == "access" and packet.vlan is not None:
                self.counters.drops["vlan-port-mode"] += 1
                return
        classify = (
            self._classify
            if self.pfc_config is self._classify_for
            else self._classifier()
        )
        priority = classify(packet)
        port.record_rx(packet, priority)
        lossless = priority in self._lossless_set
        if lossless and port.index in self._lossless_disabled_ports:
            # Storm watchdog: discard lossless packets *from* the NIC.
            self.counters.drops["watchdog-lossless"] += 1
            return
        if self.ingress_drop_filter is not None and self.ingress_drop_filter(packet):
            self.counters.drops["filter"] += 1
            return
        ip = packet.ip
        if ip is not None:
            if ip.ttl <= 1:
                self.counters.drops["ttl"] += 1
                return
            ip.ttl -= 1
        if port.is_server_facing:
            self.tables.learn_mac(packet.src_mac, port.index)
        decision = self.tables.decide(ip.dst if ip is not None else 0, lossless)
        if decision.action == decision.DROP:
            self.counters.drops[decision.reason] = (
                self.counters.drops.get(decision.reason, 0) + 1
            )
            return
        if decision.action == decision.FORWARD:
            self._forward(port, packet, priority, lossless, decision)
        else:
            self._flood(port, packet, priority, lossless)

    # -- forward / flood -----------------------------------------------------

    def _forward(self, port, packet, priority, lossless, decision):
        ports = decision.ports
        n_ports = len(ports)
        if n_ports > 1:
            # Flow-sticky by construction, so the (five_tuple, n) -> index
            # mapping is memoizable; the CRC runs once per flow per path
            # width instead of once per packet.
            seed = self.ecmp_seed
            cache = self._ecmp_cache
            if seed != self._ecmp_cache_seed:
                cache.clear()
                self._ecmp_cache_seed = seed
            key = (packet.five_tuple, n_ports)
            choice = cache.get(key)
            if choice is None:
                choice = ecmp_select(key[0], n_ports, seed)
                cache[key] = choice
            egress_idx = ports[choice]
        else:
            egress_idx = ports[0]
        egress = self.ports[egress_idx]
        if decision.reason == "l2-hit":
            # Local delivery: rewrite the MAC to the ARP-resolved station.
            mac = self.tables.resolve_local_mac(packet.ip.dst)
            if mac is not None:
                packet.dst_mac = mac
        elif (
            decision.reason == "l3-route"
            and packet.vlan is not None
            and not self.pfc_config.vlan_pcp_preserved_across_l3
        ):
            # Crossing a subnet boundary: the 802.1Q tag (and with it the
            # PCP priority) is not regenerated -- the section 3 failure
            # of VLAN-based PFC on an IP-routed fabric.  Note the packet
            # was already *classified at this hop* before the tag is lost.
            packet.vlan = None
        if lossless and egress.index in self._lossless_disabled_ports:
            # Storm watchdog: discard lossless packets *to* the NIC.
            self.counters.drops["watchdog-lossless"] += 1
            return
        if not self._admit(port, priority, packet.size_bytes, lossless):
            return
        claim = _RefBufferClaim(port.index, priority, packet.size_bytes, refs=1)
        self._enqueue_egress(egress, packet, priority, _RefEgressMeta(claim, False))

    def _flood(self, port, packet, priority, lossless):
        """Unknown-unicast flooding "to all its ports" except the ingress
        (section 4.2) -- including routed uplinks, whose copies are later
        dropped at the head of the queue."""
        mac = self.tables.resolve_local_mac(packet.ip.dst) if packet.ip else None
        if mac is not None:
            packet.dst_mac = mac
        targets = [
            p
            for p in self.ports
            if p.index != port.index
            and p.connected
            and not (
                lossless and p.index in self._lossless_disabled_ports
            )
        ]
        if not targets:
            return
        if not self._admit(port, priority, packet.size_bytes, lossless):
            return
        self.counters.flood_events += 1
        claim = _RefBufferClaim(port.index, priority, packet.size_bytes, refs=len(targets))
        for egress in targets:
            copy = packet if egress is targets[-1] else _clone_for_flood(packet)
            self.counters.flood_copies += 1
            self._enqueue_egress(egress, copy, priority, _RefEgressMeta(claim, True))

    def _admit(self, port, priority, nbytes, lossless):
        admitted = self.buffer.admit(port.index, priority, nbytes, lossless)
        if not admitted:
            if lossless:
                self.counters.drops["buffer-headroom-overflow"] += 1
            else:
                self.counters.drops["buffer-lossy"] += 1
            return False
        if lossless:
            self._signaler(port, priority).evaluate()
        return True

    def _enqueue_egress(self, egress, packet, priority, meta):
        cap = self.buffer_config.lossy_egress_cap_bytes
        if (
            cap is not None
            and not self._lossless(priority)
            and egress._queue_bytes[priority] + packet.size_bytes > cap
        ):
            self.counters.drops["egress-lossy"] += 1
            if meta is not None:
                # Release this copy's share of the buffer claim.
                self._on_port_dequeue(packet, meta, True)
            return
        ecn = self.ecn_config
        if (
            ecn.enabled
            and packet.ip is not None
            and packet.ip.ect_capable
            and self._mark_rng is not None
            and ecn.should_mark(egress._queue_bytes[priority], self._mark_rng)
        ):
            packet.ip.mark_ce()
            self.counters.ecn_marked += 1
        self.counters.tx_enqueued += 1
        egress.enqueue(packet, priority, meta)

    def _on_port_dequeue(self, packet, meta, dropped_at_head):
        if meta is None:
            return  # control/ARP enqueues carry no buffer claim
        claim = meta.claim
        claim.refs -= 1
        if claim.refs == 0:
            self.buffer.release(claim.port_idx, claim.priority, claim.nbytes)
            # [stranded-pause fix] d04fed1 asked only ``self._lossless(...)``.
            if self.buffer.pg(claim.port_idx, claim.priority).paused or self._lossless(
                claim.priority
            ):
                ingress = self.ports[claim.port_idx]
                self._signaler(ingress, claim.priority).evaluate()

    # -- watchdog callbacks ----------------------------------------------------

    def on_watchdog_trip(self, port):
        """Switch watchdog: disable lossless mode on ``port``."""
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_switch_watchdog(self, port)
        if _TRACE.enabled:
            _TRACE.session.on_switch_watchdog(self, port)
        self._lossless_disabled_ports.add(port.index)
        # Stop honouring the pause state the NIC already imposed.
        port.force_resume_all()
        # Stop pausing the NIC ourselves.
        for priority in self.pfc_config.lossless_priorities:
            key = (port.index, priority)
            if key in self._signalers:
                self._signalers[key].stop()

    def on_watchdog_reenable(self, port):
        """Switch watchdog: pause frames gone; restore lossless mode."""
        self._lossless_disabled_ports.discard(port.index)

    def lossless_disabled(self, port):
        """True while the storm watchdog has lossless mode off on ``port``."""
        return port.index in self._lossless_disabled_ports


# =============================================================================
# Two worlds, one program.
# =============================================================================

LOCAL_NET = 0x0A000000  # 10.0.0.0/24, the switch's server subnet
ROUTED1_NET = 0x0A010000  # 10.1.0.0/24 over the first uplink
ROUTEDN_NET = 0x0A020000  # 10.2.0.0/16 over every uplink
NO_ROUTE_IP = 0x0A090001
ARP_MISS_IP = LOCAL_NET + 200
DEAD_IP = LOCAL_NET + 150  # ARP-known, MAC-unknown: the incomplete entry
DEAD_MAC = 0x0200000001FF
SWITCH_MAC = 0x02AA00000000
PFC_GROUP_MAC = 0x0180C2000001


def station_ip(index):
    return LOCAL_NET + 10 + index


def station_mac(index):
    return 0x020000000100 + index


def describe(packet):
    """What a station can see of a delivered frame (never the uid: the
    two worlds draw from one global counter)."""
    if packet.pause is not None:
        return ("pfc", tuple(packet.pause.quanta))
    ip = packet.ip
    return (
        "data",
        packet.flow,
        packet.dst_mac,
        packet.vlan is not None,
        ip.ttl,
        ip.ecn,
        packet.size_bytes,
    )


class Station(Device):
    """Stub end station: logs what arrives, optionally honours PFC."""

    def __init__(self, sim, name, honour_pause):
        super().__init__(sim, name)
        self.honour_pause = honour_pause
        self.log = []

    def handle_packet(self, port, packet):
        self.log.append((self.sim.now, port.index, describe(packet)))
        if packet.pause is not None and self.honour_pause:
            port.receive_pause(packet.pause)


class ReferenceStation(Station):
    add_port = ReferenceSwitch.add_port


class World:
    """One switch, one station per port, the tables primed."""

    def __init__(self, config, switch_cls, station_cls, dwrr_cls):
        self.config = config
        self.sim = sim = Simulator()
        self.n_frames = 0
        n_ports, n_server = config["n_ports"], config["n_server"]
        lossless = (3, 4)
        buffer_config = BufferConfig(
            total_bytes=config["shared_bytes"]
            + 2_500 * n_ports * len(lossless)
            + config["guaranteed_bytes"] * n_ports * 8,
            alpha=config["alpha"],
            xoff_static_bytes=3_000,
            xon_delta_bytes=1_000,
            headroom_per_pg_bytes=2_500,
            guaranteed_per_pg_bytes=config["guaranteed_bytes"],
            lossy_egress_cap_bytes=config["lossy_egress_cap"],
        )
        pfc_config = PfcConfig(
            priority_mode=PriorityMode.VLAN if config["vlan_mode"] else PriorityMode.DSCP,
            lossless_priorities=lossless,
            pause_quanta=config["pause_quanta"],
            vlan_pcp_preserved_across_l3=config["pcp_preserved"],
        )
        self.switch = switch = switch_cls(
            sim,
            "sw",
            buffer_config=buffer_config,
            pfc_config=pfc_config,
            ecn_config=EcnConfig(
                kmin_bytes=1_000, kmax_bytes=6_000, pmax=0.5, enabled=config["ecn"]
            ),
            local_subnet=(LOCAL_NET, 24),
            ecmp_seed=0x5EED,
            mark_rng=random.Random(7),
            base_mac=SWITCH_MAC,
            forwarding_kwargs={
                "drop_lossless_on_incomplete_arp": config["drop_on_incomplete"]
            },
        )
        for _ in range(n_server):
            switch.add_server_port(vlan_port_mode=config["server_port_mode"])
        for _ in range(n_server, n_ports):
            switch.add_uplink_port(drop_flood_at_head=config["drop_flood_at_head"])
        switch.finalize()
        self.stations = []
        for index, port in enumerate(switch.ports):
            if config["dwrr"]:
                port.scheduler = dwrr_cls({3: 2, 4: 3}, quantum_bytes=600)
            station = station_cls(sim, "st%d" % index, config["honour_pause"])
            Link(
                sim,
                station.add_port(),
                port,
                rate_bps=gbps(config["rates_gbps"][index]),
                delay_ns=config["delays_ns"][index],
            )
            self.stations.append(station)
        tables = switch.tables
        for index in range(n_server):
            tables.learn_arp(station_ip(index), station_mac(index))
            tables.learn_mac(station_mac(index), index)
        tables.learn_arp(DEAD_IP, DEAD_MAC)
        uplinks = list(range(n_server, n_ports))
        tables.add_route(ROUTED1_NET, 24, uplinks[:1])
        tables.add_route(ROUTEDN_NET, 16, uplinks)
        if config["default_route"]:
            tables.add_route(0, 0, uplinks)

    # -- the program interpreter ---------------------------------------------

    def destination(self, kind, selector):
        if kind == "local":
            return station_ip(selector % self.config["n_server"])
        return {
            "routed1": ROUTED1_NET + 5 + selector,
            "routedN": ROUTEDN_NET + selector * 257,
            "noroute": NO_ROUTE_IP,
            "arpmiss": ARP_MISS_IP,
            "incomplete": DEAD_IP,
        }[kind]

    def send_frames(
        self, src, kind, selector, priority, payload, count, tagged, ttl, ect, ip_id, sport
    ):
        station = self.stations[src]
        local = src < self.config["n_server"]
        for _ in range(count):
            packet = Packet.rocev2(
                dst_mac=SWITCH_MAC + src,
                src_mac=station_mac(src) if local else 0x02BB00000000 + src,
                ip=Ipv4Header(
                    src=station_ip(src) if local else ROUTED1_NET + 100 + src,
                    dst=self.destination(kind, selector),
                    dscp=priority,
                    ecn=ECN_ECT0 if ect else ECN_NOT_ECT,
                    identification=ip_id,
                    ttl=ttl,
                ),
                udp=UdpHeader(sport, ROCEV2_UDP_PORT),
                bth=BaseTransportHeader(BthOpcode.SEND_MIDDLE, dest_qp=7, psn=self.n_frames),
                payload_bytes=payload,
                vlan=VlanTag(pcp=priority, vid=100) if tagged else None,
                created_ns=self.sim.now,
                flow=self.n_frames,
            )
            self.n_frames += 1
            station.ports[0].enqueue(packet, priority)

    def replace_pfc_config(self, variant):
        switch = self.switch
        pfc = switch.pfc_config
        switch.pfc_config = (
            lambda: pfc.copy(enabled=False),
            lambda: pfc.copy(enabled=True),
            lambda: pfc.copy(lossless_priorities=(3,)),
            lambda: pfc.copy(lossless_priorities=(3, 4)),
            lambda: pfc.copy(lossless_priorities=(4,), pause_quanta=100),
            lambda: pfc.copy(default_priority=1, pause_quanta=0xFFFF),
            # drift_dscp_map: lossless traffic lands in a lossy queue here.
            lambda: pfc.copy(dscp_to_priority={3: 0, 4: 4, 1: 3}),
            lambda: pfc.copy(dscp_to_priority=None),
        )[variant]()

    def apply(self, op):
        kind = op[0]
        switch = self.switch
        if kind == "frames":
            self.send_frames(*op[1:])
        elif kind == "incast":
            for src in range(len(self.stations)):
                self.send_frames(src, *op[1:])
        elif kind == "run":
            self.sim.run(until=self.sim.now + op[1])
        elif kind == "pause":
            _, index, priority, quanta = op
            self.stations[index].ports[0].enqueue_control(
                Packet.pfc_pause(
                    dst_mac=PFC_GROUP_MAC,
                    src_mac=station_mac(index),
                    pause=PfcPauseFrame({priority: quanta}),
                    created_ns=self.sim.now,
                )
            )
        elif kind == "pfc":
            self.replace_pfc_config(op[1])
        elif kind == "alpha":
            # FaultInjector.drift_buffer_alpha, by hand.
            drifted = switch.buffer_config.copy(alpha=op[1])
            switch.buffer_config = drifted
            switch.buffer.config = drifted
        elif kind == "cap":
            drifted = switch.buffer_config.copy(lossy_egress_cap_bytes=op[1])
            switch.buffer_config = drifted
            switch.buffer.config = drifted
        elif kind == "watchdog":
            port = switch.ports[op[1]]
            if op[2]:
                switch.on_watchdog_trip(port)
            else:
                switch.on_watchdog_reenable(port)
        elif kind == "expire_mac":
            switch.tables.mac_table.expire(station_mac(op[1]))
        elif kind == "filter":
            switch.ingress_drop_filter = (
                (lambda packet: packet.ip.identification & 0xFF == 0xFF) if op[1] else None
            )
        elif kind == "port_mode":
            switch.set_server_port_modes(op[1])
        else:
            raise AssertionError("unknown op %r" % (op,))

    # -- everything an observer can see ---------------------------------------

    def snapshot(self):
        switch = self.switch
        buffer = switch.buffer
        counters = switch.counters
        tables = switch.tables
        ports = switch.ports + [station.ports[0] for station in self.stations]
        return {
            "now": self.sim.now,
            "events_fired": self.sim.events_fired,
            "pending": self.sim.pending,
            "counters": (
                counters.rx_packets,
                counters.tx_enqueued,
                counters.flood_events,
                counters.flood_copies,
                counters.ecn_marked,
                sorted(counters.drops.items()),
            ),
            "tables": (
                tables.floods,
                tables.arp_miss_drops,
                tables.incomplete_arp_drops,
                tables.no_route_drops,
            ),
            "port_stats": [
                (
                    port.name,
                    port.stats.tx_packets,
                    port.stats.tx_bytes,
                    port.stats.rx_packets,
                    port.stats.rx_bytes,
                    port.stats.pause_tx,
                    port.stats.pause_rx,
                    port.stats.resume_tx,
                    port.stats.resume_rx,
                    port.stats.head_drops,
                    port.paused_interval_ns(),
                )
                for port in ports
            ],
            "queues": [
                (port.queue_lengths, port.queued_bytes, port.total_queued_packets)
                for port in ports
            ],
            "pgs": [
                (index, priority, state.occupancy, state.headroom_used, state.paused)
                for index in range(len(switch.ports))
                for priority in range(N_PRIORITIES)
                for state in (buffer.pg(index, priority),)
            ],
            "buffer": (
                buffer.shared_in_use,
                buffer.peak_shared_in_use,
                buffer.headroom_in_use,
                buffer.paused_pgs,
                buffer.total_occupancy,
            ),
            "delivered": [len(station.log) for station in self.stations],
        }


#: Long enough for any pause a program can impose to expire (0xFFFF
#: quanta at 1 Gb/s is 33.6 ms) and every queue behind it to drain.
DRAIN_NS = 80 * MS


def run_program(world, ops):
    """Interpret ``ops``; return a snapshot per ``run`` plus the drained
    end state, and the full per-station delivery logs."""
    snapshots = []
    for op in ops:
        world.apply(op)
        if op[0] == "run":
            snapshots.append(world.snapshot())
    world.sim.run(until=world.sim.now + DRAIN_NS, max_events=400_000)
    snapshots.append(world.snapshot())
    return snapshots, [station.log for station in world.stations]


def new_world(config):
    return World(config, Switch, Station, DwrrScheduler)


def reference_world(config):
    return World(config, ReferenceSwitch, ReferenceStation, ReferenceDwrrScheduler)


def assert_same_walk(config, ops):
    """Run one program through both worlds; everything must be ``==``."""
    got_snapshots, got_logs = run_program(new_world(config), ops)
    want_snapshots, want_logs = run_program(reference_world(config), ops)
    assert len(got_snapshots) == len(want_snapshots)
    for step, (got, want) in enumerate(zip(got_snapshots, want_snapshots)):
        for key in want:
            assert got[key] == want[key], "snapshot %d, %s" % (step, key)
    for index, (got, want) in enumerate(zip(got_logs, want_logs)):
        assert got == want, "station %d saw different frames" % index
    return got_snapshots, got_logs


# =============================================================================
# Tests.
# =============================================================================


def base_config(**overrides):
    """A six-port world (four servers, two uplinks) with everything
    optional switched off; pinned programs override what they need."""
    config = {
        "n_ports": 6,
        "n_server": 4,
        "vlan_mode": False,
        "pcp_preserved": False,
        "server_port_mode": None,
        "dwrr": False,
        "alpha": None,
        "shared_bytes": 60_000,
        "guaranteed_bytes": 0,
        "lossy_egress_cap": None,
        "ecn": False,
        "drop_on_incomplete": False,
        "drop_flood_at_head": False,
        "default_route": False,
        "honour_pause": False,
        "pause_quanta": 0xFFFF,
        "rates_gbps": [10] * 6,
        "delays_ns": [10] * 6,
    }
    config.update(overrides)
    return config


def pfc_frames(log):
    """``(time, quanta-of-the-one-priority-named)`` per PFC frame."""
    return [
        (time, next(q for q in frame[1] if q is not None))
        for time, _port, frame in log
        if frame[0] == "pfc"
    ]


@settings(max_examples=150, deadline=None)
@given(switch_walk_programs())
def test_walk_equals_reference_on_random_programs(program):
    config, ops = program
    snapshots, _logs = assert_same_walk(config, ops)
    # Not a differential property, but every program can check it: a
    # drained buffer has no PG left asserting pause.  (At d04fed1 a
    # ``pfc_config`` replacement could strand one; see the module
    # docstring.)
    *_, paused_pgs, total_occupancy = snapshots[-1]["buffer"]
    assert total_occupancy or not paused_pgs


class TestPinnedPrograms:
    def test_everything_armed_at_once(self):
        """DWRR, ECN, the lossy egress cap, flood copies dropped at the
        head of routed ports, a peer pausing an uplink mid-burst, TTL 1
        -- and a check that the program really provokes each of them, so
        the equality above is not between two idle switches."""
        config = base_config(
            dwrr=True,
            alpha=1.0 / 16,
            guaranteed_bytes=1_200,
            lossy_egress_cap=6_000,
            ecn=True,
            drop_flood_at_head=True,
            default_route=True,
            honour_pause=True,
            pause_quanta=400,
            rates_gbps=[1, 10, 10, 10, 10, 10],
            delays_ns=[500] * 6,
        )
        ops = [
            # Lossless incast into the 1G station: XOFF, headroom, ECN.
            ("incast", "local", 0, 3, 1024, 8, False, 64, True, 0, 49152),
            ("run", 4_000),
            # Lossy incast: the egress cap and lossy drops.
            ("incast", "local", 0, 0, 1024, 8, False, 64, False, 0, 49153),
            ("pause", 4, 3, 3_000),
            # Incomplete ARP: floods, whose uplink copies die at the head.
            ("frames", 1, "incomplete", 0, 3, 200, 4, False, 64, False, 0, 49154),
            ("run", 40_000),
            ("frames", 2, "routedN", 3, 4, 1024, 16, True, 64, True, 0, 49155),
            ("frames", 3, "routed1", 3, 3, 1024, 4, False, 1, False, 0, 49155),
            ("run", 400_000),
        ]
        snapshots, _logs = assert_same_walk(config, ops)
        end = snapshots[-1]
        _rx, _tx, flood_events, flood_copies, ecn_marked, drops = end["counters"]
        drops = dict(drops)
        assert (flood_events, flood_copies) == (4, 20)
        assert ecn_marked > 0
        for reason in ("ttl", "buffer-lossy", "buffer-headroom-overflow", "egress-lossy"):
            assert drops[reason] > 0, reason
        switch_ports = end["port_stats"][:6]
        assert all(row[5] > 0 and row[7] > 0 for row in switch_ports)  # pause_tx, resume_tx
        assert sum(row[9] for row in switch_ports) == 8  # head_drops: 4 floods x 2 uplinks
        assert any(snapshot["buffer"][2] for snapshot in snapshots)  # headroom in use mid-run
        assert end["buffer"][4] == 0 and end["pending"] == 0

    def test_admit_charges_the_size_after_the_vlan_strip(self):
        """The named mutant.  Under VLAN classification a routed frame
        loses its tag at this hop: rx stats count 1,090 bytes, the PG is
        charged 1,086 and the wire carries 1,086."""
        config = base_config(vlan_mode=True, rates_gbps=[10, 10, 10, 10, 1, 1])
        ops = [
            ("frames", 0, "routed1", 0, 3, 1024, 3, True, 64, False, 0, 49152),
            ("run", 4_000),
        ]
        snapshots, logs = assert_same_walk(config, ops)
        mid = snapshots[0]
        assert mid["port_stats"][0][4][3] == 3 * 1_090  # rx_bytes[3] on the ingress port
        # One frame is on the 1G wire (released at dequeue), two wait.
        assert (0, 3, 2 * 1_086, 0, False) in mid["pgs"]
        assert mid["buffer"][1] == 2 * 1_086  # peak shared
        assert [frame[3] for _, _, frame in logs[4]] == [False] * 3  # arrives untagged
        assert [frame[6] for _, _, frame in logs[4]] == [1_086] * 3

    def test_admit_evaluates_a_pg_that_is_already_paused(self):
        """The sibling mutant, which 300 random programs did not kill
        (this program is the one survivor in ~2,400 of a directed
        search).  PG (0, 3) asserts XOFF while PG (1, 4) crowds the
        shared pool; (1, 4) drains, so the dynamic threshold -- and XON
        with it -- rises above (0, 3), whose own frames are stuck behind
        an egress its station paused.  The next *admit* on (0, 3) must
        notice and send XON; no release of its own will for 3 ms."""
        config = base_config(
            n_ports=5,
            n_server=3,
            alpha=0.5,
            shared_bytes=12_000,
            guaranteed_bytes=1_200,
            rates_gbps=[40, 40, 10, 10, 40],
            delays_ns=[10] * 5,
        )
        ops = [
            ("pause", 2, 3, 0xFFFF),
            ("run", 2_000),
            ("frames", 1, "routed1", 0, 4, 1024, 16, False, 64, False, 0, 49152),
            ("run", 5_000),
            ("frames", 0, "local", 2, 3, 1024, 4, False, 64, False, 0, 49152),
            ("run", 400_000),
            ("frames", 0, "local", 2, 3, 0, 2, False, 64, False, 0, 49152),
            ("run", 20_000),
        ]
        snapshots, logs = assert_same_walk(config, ops)
        assert pfc_frames(logs[0]) == [(7_925, 0xFFFF), (407_054, 0)]
        # XON went out with every byte of the PG still queued: an admit
        # decided it, not a release.
        assert (0, 3, 4_468, 0, False) in snapshots[3]["pgs"]

    def test_a_pg_pausing_when_pfc_is_disabled_lets_go_as_it_drains(self):
        """The stranded-pause fix on the dequeue step: PG (0, 3) is
        asserting XOFF when ``pfc_config`` is replaced with PFC off.  It
        still gets its XON the moment it drains below the threshold --
        long before the 3.4 ms refresh timer would have noticed -- and
        nothing is left armed afterwards."""
        config = base_config(rates_gbps=[40, 10, 1, 10, 10, 10])
        ops = [
            ("frames", 0, "local", 2, 3, 1024, 6, False, 64, False, 0, 49152),
            ("run", 3_000),
            ("pfc", 0),
            ("run", 100_000),
        ]
        snapshots, logs = assert_same_walk(config, ops)
        assert snapshots[0]["buffer"][3] == 1  # paused_pgs when the config is pushed
        (xoff_at, xoff), (xon_at, xon) = pfc_frames(logs[0])
        assert (xoff, xon) == (0xFFFF, 0)
        assert xoff_at < 3_000 < xon_at < 100_000
        assert snapshots[1]["buffer"][3] == 0
        assert snapshots[-1]["pending"] == 0

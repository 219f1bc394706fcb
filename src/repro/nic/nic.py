"""The RDMA NIC device.

Receive side
    Arriving data packets land in a finite receive buffer and are drained
    by a pipeline with a per-packet base cost plus any MTT stall.  When
    occupancy crosses XOFF the NIC pauses its ToR for all lossless
    priorities; XON resumes them.  :meth:`Nic.break_rx_pipeline`
    reproduces the section 4.3 bug: "The bug stopped the NIC from
    handling the packets it received.  As a result, the NIC's receiving
    buffer filled, and the NIC began to send out pause frames all the
    time."

Watchdog
    "the NIC has a separate micro-controller ... Once the NIC
    micro-controller detects the receiving pipeline has been stopped for
    a period of time (default to 100ms) and the NIC is generating the
    pause frames, the micro-controller will disable the NIC from
    generating pause frames."  The NIC watchdog does **not** re-enable
    lossless mode ("once the NIC enters the PFC storm mode, it never
    comes back").

Transmit side
    Sources (QPs, TCP connections) register with the NIC; a round-robin
    scheduler pulls one packet at a time from whichever source is ready
    (its pacing gate open), keeping the port queue shallow so that PFC
    pause back-pressures the sources rather than an unbounded queue.
    The scheduler does not poll: it keeps the *ready set*, the sources
    that may have work, and a source tells it when it gains some
    (:meth:`Nic.notify_tx_ready`).
"""

import collections
from bisect import bisect_left, insort

from repro.packets.packet import Packet
from repro.packets.pause import MAX_QUANTA, PfcPauseFrame, pause_quanta_to_ns
from repro.net.device import Device
from repro.nic.mtt import MttCache
from repro.sim.timer import Timer
from repro.sim.units import KB, MS
from repro.obs import TELEMETRY as _TELEMETRY
from repro.obs import TRACE as _TRACE


class NicWatchdogConfig:
    """NIC-side storm watchdog tunables (section 4.3 defaults)."""

    def __init__(self, stall_threshold_ns=100 * MS, poll_interval_ns=10 * MS, enabled=True):
        self.stall_threshold_ns = stall_threshold_ns
        self.poll_interval_ns = poll_interval_ns
        self.enabled = enabled


class NicConfig:
    """NIC resource and PFC parameters."""

    def __init__(
        self,
        pfc_config=None,
        rx_buffer_bytes=256 * KB,
        rx_xoff_bytes=160 * KB,
        rx_xon_bytes=96 * KB,
        rx_base_ns_per_packet=60,
        mtt_config=None,
        watchdog_config=None,
        pause_quanta=MAX_QUANTA,
        tx_queue_target_packets=2,
        rx_span_per_flow_bytes=16 * 1024 * KB,
    ):
        if not rx_xon_bytes <= rx_xoff_bytes <= rx_buffer_bytes:
            raise ValueError("need XON <= XOFF <= buffer size")
        self.pfc_config = pfc_config
        self.rx_buffer_bytes = rx_buffer_bytes
        self.rx_xoff_bytes = rx_xoff_bytes
        self.rx_xon_bytes = rx_xon_bytes
        self.rx_base_ns_per_packet = rx_base_ns_per_packet
        self.mtt_config = mtt_config
        self.watchdog_config = watchdog_config or NicWatchdogConfig()
        self.pause_quanta = pause_quanta
        self.tx_queue_target_packets = tx_queue_target_packets
        # Synthetic receive-buffer footprint per flow, used to derive the
        # MTT page access pattern (section 4.4's working set).
        self.rx_span_per_flow_bytes = rx_span_per_flow_bytes


class NicStats:
    """NIC-level counters."""

    def __init__(self):
        self.rx_processed = 0
        self.rx_dropped_buffer = 0
        self.rx_dropped_mac = 0
        self.rx_dropped_dead = 0
        self.tx_packets = 0
        self.pause_generated = 0
        self.resume_generated = 0
        self.mtt_stall_ns = 0


class Nic(Device):
    """One server NIC with a single port toward its ToR."""

    def __init__(self, sim, name, mac, config=None, pfc_config=None):
        super().__init__(sim, name)
        if config is None:
            config = NicConfig()
        if pfc_config is not None:
            config.pfc_config = pfc_config
        if config.pfc_config is None:
            from repro.switch.pfc import PfcConfig

            config.pfc_config = PfcConfig()
        self.mac = mac
        self.config = config
        self.pfc_config = config.pfc_config
        self.stats = NicStats()
        self.port = self.add_port()
        self.mtt = MttCache(config.mtt_config) if config.mtt_config else None
        # Receive pipeline state.
        self._rx_queue = collections.deque()
        self._rx_bytes = 0
        self._rx_busy = False
        self._rx_paused_upstream = False
        self._pipeline_broken = False
        self._dead = False
        self._pause_refresh = Timer(sim, self._refresh_pause, name="%s.pauseref" % name)
        # Handlers installed by the host: fn(packet) for each protocol.
        self.rx_handler = None
        # Watchdog state.
        self.pause_generation_disabled = False
        self.watchdog_trips = 0
        self._progress_marker = 0
        self._stalled_since = None
        self._watchdog = Timer(sim, self._watchdog_poll, name="%s.wdog" % name)
        if config.watchdog_config.enabled:
            self._watchdog.start(config.watchdog_config.poll_interval_ns)
        # Transmit scheduling.  ``_sources[slot]`` in registration order;
        # ``_ready`` is the ascending list of slots that may have work, a
        # superset of those whose next_ready_ns() is not None.
        self._sources = []
        self._slot_of = {}
        self._ready = []
        self._rr_index = 0
        # The NIC assigns IP IDs sequentially from a device-global counter
        # (section 4.1 exploits this: dropping IDs ending 0xff gives a
        # deterministic 1/256 loss).
        self._ip_id = 0
        self._tx_timer = Timer(sim, self._pump_tx, name="%s.tx" % name)
        self.port.on_dequeue = self._on_tx_dequeue
        # Pre-bound rx completion for the pooled fast path.
        self._rx_done_ref = self._rx_done

    # -- fault injection -------------------------------------------------------

    def break_rx_pipeline(self):
        """Reproduce the section 4.3 NIC bug: the receive pipeline stops
        and the NIC emits pause frames continuously."""
        self._pipeline_broken = True
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_fault(self.name, "rx_pipeline_broken")
        self._assert_pause()

    def repair(self):
        """Model a server repair (reboot/reimage): pipeline restored,
        buffer cleared.  Note the NIC watchdog's pause-disable latch is
        also cleared -- a rebooted NIC is a fresh NIC."""
        self._pipeline_broken = False
        self._dead = False
        self.port.frozen = False
        self._rx_queue.clear()
        self._rx_bytes = 0
        self._rx_busy = False
        self.pause_generation_disabled = False
        self._stalled_since = None
        self._release_pause()
        self._process_next()
        # The transmit side was stopped too.  The resume frame above
        # restarted the port; work the sources were handed while the
        # pump refused to run is picked up here.
        self._pump_tx()

    def die(self):
        """The server goes completely silent (dead host in the deadlock
        experiment): nothing is received, processed or transmitted."""
        self._dead = True
        self.port.frozen = True

    @property
    def rx_pipeline_broken(self):
        """True while :meth:`break_rx_pipeline` is in effect."""
        return self._pipeline_broken

    @property
    def rx_occupancy_bytes(self):
        """Bytes currently held in the receive buffer."""
        return self._rx_bytes

    def audit_rx_accounting(self):
        """``(claimed_bytes, actual_bytes)`` of the receive buffer: the
        running occupancy counter vs. a recount of the queued frames.
        The invariant auditors assert these never diverge."""
        return self._rx_bytes, sum(p.size_bytes for p in self._rx_queue)

    def audit_tx_ready(self):
        """Registered sources that could send but are missing from the
        ready set: lost wake-ups.  The invariant auditors assert there
        are none."""
        ready = self._ready
        return [
            source
            for slot, source in enumerate(self._sources)
            if slot not in ready and source.next_ready_ns() is not None
        ]

    # -- receive path ------------------------------------------------------------

    def handle_packet(self, port, packet):
        """Device entry point for every frame arriving from the ToR.

        Pause frames update the port's pause state; data frames for this
        MAC (or broadcast) are admitted to the finite receive buffer --
        crossing XOFF makes the NIC pause its ToR (the §4.4 slow-receiver
        mechanism) -- and drained by the receive pipeline, which pays any
        MTT stall before handing the packet to the host's dispatcher."""
        if self._dead:
            self.stats.rx_dropped_dead += 1
            return
        pause = packet.pause
        if pause is not None:
            port.receive_pause(pause)
            self._pump_tx()
            return
        if packet.arp is not None:
            if self.rx_handler is not None:
                self.rx_handler(packet)
            return
        if packet.dst_mac != self.mac and packet.dst_mac != 0xFFFFFFFFFFFF:
            # Flood copy for someone else: discarded ("the destination
            # MAC does not match").
            self.stats.rx_dropped_mac += 1
            return
        config = self.config
        occupancy = self._rx_bytes + packet.size_bytes
        if occupancy > config.rx_buffer_bytes:
            # Receive buffer overrun: with working PFC this only happens
            # when pause generation has been watchdog-disabled.
            self.stats.rx_dropped_buffer += 1
            if _TRACE.enabled:
                _TRACE.session.on_nic_rx_drop(self, packet, "buffer")
            return
        self._rx_queue.append(packet)
        self._rx_bytes = occupancy
        if _TRACE.enabled:
            _TRACE.session.on_nic_rx(self, packet)
        if not self._rx_paused_upstream and occupancy > config.rx_xoff_bytes:
            self._assert_pause()
        if not self._rx_busy:
            self._process_next()

    def _process_next(self):
        if self._rx_busy or self._pipeline_broken or not self._rx_queue:
            return
        packet = self._rx_queue[0]
        service_ns = self.config.rx_base_ns_per_packet
        if self.mtt is not None and packet.bth is not None and packet.payload_bytes:
            stall = self.mtt.touch(self._rx_vaddr(packet), packet.payload_bytes)
            self.stats.mtt_stall_ns += stall
            service_ns += stall
        self._rx_busy = True
        self.sim.schedule0(service_ns, self._rx_done_ref)

    def _rx_done(self):
        self._rx_busy = False
        if self._pipeline_broken or not self._rx_queue:
            return
        packet = self._rx_queue.popleft()
        self._rx_bytes -= packet.size_bytes
        self.stats.rx_processed += 1
        if (
            self._rx_paused_upstream
            and not self._pipeline_broken
            and self._rx_bytes <= self.config.rx_xon_bytes
        ):
            self._release_pause()
        if _TRACE.enabled:
            _TRACE.session.on_nic_rx_done(self, packet)
        if self.rx_handler is not None:
            self.rx_handler(packet)
        if _TRACE.enabled:
            _TRACE.session.on_nic_rx_dispatched(self)
        if self._rx_queue:
            self._process_next()

    def _rx_vaddr(self, packet):
        """Synthetic receive-buffer address for the MTT access pattern:
        each flow owns a span of virtual memory; successive packets walk
        it circularly (a ring of posted receive buffers)."""
        span = self.config.rx_span_per_flow_bytes
        flow_key = packet.flow if packet.flow is not None else packet.bth.dest_qp
        base = (hash(flow_key) & 0xFFFF) * span
        offset = (packet.bth.psn * max(1, packet.payload_bytes)) % span
        return base + offset

    # -- PFC generation ------------------------------------------------------------

    def _assert_pause(self):
        if self.pause_generation_disabled:
            return
        self._rx_paused_upstream = True
        self._send_pause_frame(self.config.pause_quanta)
        if self.port.link is not None:
            duration = pause_quanta_to_ns(self.config.pause_quanta, self.port.link.rate_bps)
            self._pause_refresh.start(max(1, duration // 2))

    def _release_pause(self):
        self._rx_paused_upstream = False
        self._pause_refresh.cancel()
        if not self.pause_generation_disabled:
            self._send_resume_frame()

    def _refresh_pause(self):
        if self.pause_generation_disabled:
            return
        if self._pipeline_broken or self._rx_bytes > self.config.rx_xon_bytes:
            self._assert_pause()
        else:
            self._release_pause()

    def _send_pause_frame(self, quanta):
        frame = PfcPauseFrame(
            {priority: quanta for priority in self.pfc_config.lossless_priorities}
        )
        if _TRACE.enabled:
            _TRACE.session.on_nic_pause_emit(self, frame, quanta)
        self.port.enqueue_control(
            Packet.pfc_pause(dst_mac=0x0180C2000001, src_mac=self.mac, pause=frame)
        )
        if quanta:
            self.stats.pause_generated += 1
        else:
            self.stats.resume_generated += 1

    def _send_resume_frame(self):
        frame = PfcPauseFrame.resume(sorted(self.pfc_config.lossless_priorities))
        if _TRACE.enabled:
            _TRACE.session.on_nic_resume_emit(self, frame)
        self.port.enqueue_control(
            Packet.pfc_pause(dst_mac=0x0180C2000001, src_mac=self.mac, pause=frame)
        )
        self.stats.resume_generated += 1

    # -- NIC watchdog ------------------------------------------------------------

    def _watchdog_poll(self):
        """Micro-controller check: pipeline stopped + pauses flowing for
        longer than the threshold => disable pause generation for good."""
        config = self.config.watchdog_config
        progressed = self.stats.rx_processed != self._progress_marker
        self._progress_marker = self.stats.rx_processed
        pipeline_stopped = (self._pipeline_broken or self._rx_queue) and not progressed
        generating = self._rx_paused_upstream and not self.pause_generation_disabled
        if pipeline_stopped and generating:
            if self._stalled_since is None:
                self._stalled_since = self.sim.now
            elif self.sim.now - self._stalled_since >= config.stall_threshold_ns:
                self._trip_watchdog()
        else:
            self._stalled_since = None
        self._watchdog.start(config.poll_interval_ns)

    def _trip_watchdog(self):
        self.pause_generation_disabled = True
        self.watchdog_trips += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_nic_watchdog(self)
        if _TRACE.enabled:
            _TRACE.session.on_nic_watchdog(self)
        self._pause_refresh.cancel()
        self._rx_paused_upstream = False
        # One final XON so the ToR port is not left paused for a full
        # pause duration after the storm stops.
        self._send_resume_frame()

    # -- transmit path ------------------------------------------------------------

    def register_source(self, source):
        """Register a packet source (QP engine, TCP connection).

        A source exposes ``next_ready_ns()`` (absolute time it could send
        next, or ``None`` when idle) and ``pull()`` returning
        ``(packet, priority)``.

        The scheduler does not poll idle sources.  A source is probed
        from registration until it first answers ``None``; after that it
        is probed again only once it has called
        ``notify_tx_ready(source)``, which it owes the NIC whenever
        something other than its own ``pull()`` may have turned its
        ``next_ready_ns()`` from ``None`` into a time (work posted, an
        ACK opening the window, a retransmission timer rewinding it).
        Notifying too often costs one probe; not notifying strands the
        work (:class:`~repro.faults.invariants.NicTxReadyAuditor`).
        """
        if source in self._slot_of:
            raise ValueError("source registered twice: %r" % (source,))
        self._slot_of[source] = len(self._sources)
        self._sources.append(source)
        self.notify_tx_ready(source)

    def unregister_source(self, source):
        """Remove a previously registered packet source (no-op if absent).

        Later sources move down one slot; the round-robin pointer and
        the ready set follow them, so whoever was next in turn still is.
        """
        slot = self._slot_of.pop(source, None)
        if slot is None:
            return
        del self._sources[slot]
        for later in self._sources[slot:]:
            self._slot_of[later] -= 1
        self._ready[:] = [s - (s > slot) for s in self._ready if s != slot]
        if self._rr_index > slot:
            self._rr_index -= 1
        if self._rr_index >= len(self._sources):
            self._rr_index = 0

    def notify_tx_ready(self, source):
        """Called by ``source`` when it may have gained work to send (see
        :meth:`register_source`); ignored from a source not registered."""
        slot = self._slot_of.get(source)
        if slot is None:
            return
        if slot not in self._ready:
            insort(self._ready, slot)
        self._pump_tx()

    def _pump_tx(self):
        """Fill the port queue up to its target depth, one packet from
        one source at a time.

        Arbitration is a round-robin poll of every source from
        ``_rr_index``: the first whose ready time has come is pulled and
        the pointer moves past it; if none has, the tx timer is armed at
        the earliest future ready time.  Only members of the ready set
        are actually probed -- any other source would answer ``None``
        and be stepped over -- and one that answers ``None`` leaves it.
        """
        ready = self._ready
        if self._dead or not ready:
            return
        port = self.port
        sources = self._sources
        while port.total_queued_packets < self.config.tx_queue_target_packets:
            now = self.sim.now
            earliest_future = None
            pulled = False
            done_steps = 0
            while True:
                base = self._rr_index
                split = bisect_left(ready, base)
                # A copy: enqueue() below re-enters this method through
                # the port's dequeue callback, and idle sources leave
                # mid-walk.
                order = ready[split:] + ready[:split]
                if done_steps:
                    n = len(sources)
                    order = [s for s in order if (s - base) % n >= done_steps]
                for slot in order:
                    source = sources[slot]
                    ready_ns = source.next_ready_ns()
                    if ready_ns is None:
                        ready.remove(slot)
                    elif ready_ns <= now:
                        self._rr_index = (slot + 1) % len(sources)
                        packet, priority = source.pull()
                        if packet is not None:
                            self.stats.tx_packets += 1
                            port.enqueue(packet, priority)
                            pulled = True
                        break
                    elif earliest_future is None or ready_ns < earliest_future:
                        earliest_future = ready_ns
                else:
                    break
                if pulled:
                    break
                # pull() had nothing after all (a TCP retransmission that
                # was acked while it waited).  The poll this walk stands
                # for reads _rr_index afresh at every step: having moved
                # it at step k, it goes on at step k + 1 *from the new
                # pointer*, so it steps over k + 1 sources and ends by
                # looking at the first k + 1 a second time.
                done_steps = (slot - base) % len(sources) + 1
            if not pulled:
                if earliest_future is not None:
                    self._tx_timer.start_at(earliest_future)
                return

    def _on_tx_dequeue(self, packet, meta, dropped_at_head):
        self._pump_tx()

    # -- helpers ------------------------------------------------------------------

    def next_ip_id(self):
        """Sequential device-global IP identification (16-bit wrap)."""
        value = self._ip_id
        self._ip_id = (value + 1) & 0xFFFF
        return value

"""Reliable-connected queue pairs.

A :class:`QueuePair` is one end of an RC connection.  It is both:

* a **requester**: it segments posted work requests (SEND / WRITE /
  READ) into MTU-sized BTH packets with consecutive PSNs, paces them at
  its current rate (DCQCN's reaction point adjusts this), and recovers
  from NAKs/timeouts via its :class:`~repro.rdma.recovery.RecoveryPolicy`;
* a **responder**: it tracks the expected PSN, delivers in-order data,
  generates coalesced ACKs, answers READ requests with a response stream,
  and NAKs the first out-of-sequence packet of a gap (suppressing
  duplicates until the gap heals -- standard IB behaviour).

Simulator conveniences, documented deviations from the IB spec:

* PSNs are unwrapped integers internally (the BTH still carries the low
  24 bits); experiments never push one QP past 2^24 *distinct* PSNs but
  livelock reruns the same PSN range indefinitely, which unwrapped
  arithmetic keeps unambiguous.
* The AETH's MSN field carries the cumulative acked PSN instead of a
  message sequence number (the paper's NICs coalesce ACKs similarly).
"""

from repro.packets.ethernet import VlanTag
from repro.packets.ip import (
    ECN_CE,
    ECN_ECT0,
    ECN_NOT_ECT,
    IPPROTO_UDP,
    IPV4_HEADER_BYTES,
    Ipv4Header,
)
from repro.packets.packet import Packet
from repro.packets.rocev2 import (
    AETH_BYTES,
    BTH_BYTES,
    ICRC_BYTES,
    PSN_MASK,
    ROCEV2_UDP_PORT,
    Aeth,
    AethSyndrome,
    BaseTransportHeader,
    BthOpcode,
)
from repro.packets.udp import UDP_HEADER_BYTES, UdpHeader
from repro.rdma.recovery import GoBackN
from repro.sim.timer import Timer
from repro.sim.units import SEC, US
from repro.obs import TRACE as _TRACE


class TrafficClass:
    """How a QP's packets are coloured: DSCP, PFC priority, optional VLAN.

    Under DSCP-based PFC only ``dscp`` matters (and ``priority`` must be
    what the fabric maps that DSCP to).  Under VLAN-based PFC the packets
    also need an 802.1Q tag carrying ``priority`` as the PCP -- with a
    VLAN ID along for the ride, which is the section 3 problem.
    """

    def __init__(self, dscp=3, priority=3, vlan_id=None):
        self.dscp = dscp
        self.priority = priority
        self.vlan_id = vlan_id

    def vlan_tag(self):
        if self.vlan_id is None:
            return None
        return VlanTag(pcp=self.priority, vid=self.vlan_id)


class QpConfig:
    """Queue pair tunables."""

    def __init__(
        self,
        mtu_payload=1024,
        traffic_class=None,
        window_packets=512,
        ack_coalesce=16,
        rto_ns=500 * US,
        recovery=None,
        ecn_capable=True,
        cnp_interval_ns=50 * US,
        cnp_dscp=48,
        cnp_priority=6,
        require_posted_receives=False,
        rnr_retry_delay_ns=100 * US,
    ):
        if mtu_payload <= 0:
            raise ValueError("mtu_payload must be positive")
        self.mtu_payload = mtu_payload
        self.traffic_class = traffic_class or TrafficClass()
        self.window_packets = window_packets
        self.ack_coalesce = ack_coalesce
        self.rto_ns = rto_ns
        self.recovery = recovery or GoBackN()
        self.ecn_capable = ecn_capable
        self.cnp_interval_ns = cnp_interval_ns
        self.cnp_dscp = cnp_dscp
        self.cnp_priority = cnp_priority
        # Verbs receive-queue semantics: an incoming SEND consumes a
        # posted receive WQE; with none available the responder returns
        # RNR NAK and the requester retries after a backoff.  Off by
        # default (most experiments model pre-posted rings).
        self.require_posted_receives = require_posted_receives
        self.rnr_retry_delay_ns = rnr_retry_delay_ns


class WorkRequest:
    """One verbs-level operation posted to a QP's send queue."""

    _next_id = 0

    def __init__(self, kind, size_bytes, on_complete=None):
        if kind not in ("send", "write", "read"):
            raise ValueError("unknown work request kind: %r" % (kind,))
        if size_bytes <= 0:
            raise ValueError("work requests carry at least one byte")
        self.kind = kind
        self.size_bytes = size_bytes
        self.on_complete = on_complete
        self.wr_id = WorkRequest._next_id
        WorkRequest._next_id += 1
        self.posted_ns = None
        self.completed_ns = None

    @property
    def completed(self):
        return self.completed_ns is not None

    def __repr__(self):
        return "WorkRequest(#%d, %s, %dB%s)" % (
            self.wr_id,
            self.kind,
            self.size_bytes,
            ", done" if self.completed else "",
        )


class _Message:
    """A segmented unit on the send side: a SEND/WRITE payload, a READ
    request (one packet) or a READ response stream."""

    __slots__ = ("kind", "wr", "start_psn", "n_packets", "payload_total", "read_id")

    DATA = "data"
    READ_REQUEST = "read_request"
    READ_RESPONSE = "read_response"

    def __init__(self, kind, wr, start_psn, n_packets, payload_total, read_id=None):
        self.kind = kind
        self.wr = wr
        self.start_psn = start_psn
        self.n_packets = n_packets
        self.payload_total = payload_total
        self.read_id = read_id

    @property
    def end_psn(self):
        return self.start_psn + self.n_packets - 1


class _PacketCtx:
    """Out-of-band per-packet context (unwrapped PSN etc.)."""

    __slots__ = (
        "psn",
        "kind",
        "is_msg_first",
        "is_msg_last",
        "read_id",
        "read_size",
        "ack_psn",
        "nak_psn",
    )

    def __init__(
        self,
        psn=None,
        kind=None,
        is_msg_first=False,
        is_msg_last=False,
        read_id=None,
        read_size=None,
        ack_psn=None,
        nak_psn=None,
    ):
        self.psn = psn
        self.kind = kind
        self.is_msg_first = is_msg_first
        self.is_msg_last = is_msg_last
        self.read_id = read_id
        self.read_size = read_size
        self.ack_psn = ack_psn
        self.nak_psn = nak_psn


class QpStats:
    """Per-QP transport counters."""

    def __init__(self):
        self.data_packets_sent = 0
        self.retransmitted_packets = 0
        self.bytes_completed = 0
        self.messages_completed = 0
        self.acks_sent = 0
        self.naks_sent = 0
        self.naks_received = 0
        self.timeouts = 0
        self.cnps_sent = 0
        self.cnps_received = 0
        self.duplicates_received = 0
        self.out_of_order_discarded = 0
        self.rnr_naks_sent = 0
        self.rnr_naks_received = 0
        self.stale_naks_discarded = 0


# Segment opcodes, indexed [is_first][is_last] (middle, last / first, only).
_SEND_OPCODES = (
    (BthOpcode.SEND_MIDDLE, BthOpcode.SEND_LAST),
    (BthOpcode.SEND_FIRST, BthOpcode.SEND_ONLY),
)
_WRITE_OPCODES = (
    (BthOpcode.RDMA_WRITE_MIDDLE, BthOpcode.RDMA_WRITE_LAST),
    (BthOpcode.RDMA_WRITE_FIRST, BthOpcode.RDMA_WRITE_ONLY),
)
_READ_RESPONSE_OPCODES = (
    (BthOpcode.RDMA_READ_RESPONSE_MIDDLE, BthOpcode.RDMA_READ_RESPONSE_LAST),
    (BthOpcode.RDMA_READ_RESPONSE_FIRST, BthOpcode.RDMA_READ_RESPONSE_ONLY),
)


class QueuePair:
    """One end of an RC connection.  Create pairs with
    :func:`repro.rdma.verbs.connect_qp_pair`."""

    def __init__(self, engine, qpn, config, src_udp_port):
        self.engine = engine
        self.host = engine.host
        self.sim = engine.sim
        self.qpn = qpn
        self.config = config
        self.src_udp_port = src_udp_port
        self.stats = QpStats()
        # Peer identity, filled in by verbs.connect_qp_pair().
        self.remote_qpn = None
        self.remote_ip = None
        self.remote_mac = None
        # Requester state.
        self.send_ptr = 0  # next PSN to put on the wire
        self.una = 0  # lowest unacknowledged PSN
        self.high_sent = 0  # PSNs below this have been sent at least once
        self._total_end = 0  # next unused PSN (end of enqueued messages)
        self._messages = []
        self._next_read_id = 0
        self._pending_reads = {}
        self._rto = Timer(self.sim, self._on_timeout, name="qp%d.rto" % qpn)
        self._next_allowed_ns = 0
        self.rate_bps = None  # None -> line rate; DCQCN RP overrides
        self.rp = None  # DCQCN reaction point, attached by verbs
        # Responder state.
        self.epsn = 0
        self._gap_naks = 0  # NAKs sent for the current PSN gap (0: no gap)
        self._gap_psn = 0  # last out-of-order PSN seen in the current gap
        self._ack_backlog = 0
        self._last_cnp_ns = None
        # Control packets (ACK/NAK/CNP) ready to transmit.
        self._ctrl_queue = []
        # Upcall for completed incoming messages: fn(qp, kind, size_bytes).
        self.on_message = None
        # RTT probing (for RTT-based congestion control a la TIMELY):
        # send times of ack-requesting packets, sampled when acked.
        self._rtt_probes = {}
        self.on_rtt_sample = None
        # Receive queue credits (verbs post_recv); only consulted when
        # config.require_posted_receives is set.
        self.recv_credits = 0

    # ----------------------------------------------------------------- audit

    def audit_state(self):
        """Published transport state for the runtime invariant auditors.

        ``una``/``epsn`` only promise monotonicity when the recovery
        policy never restarts messages (``responder_restarts`` False):
        go-back-0 legitimately rewinds both on every loss, which is the
        section 4.1 livelock itself, not an implementation bug.
        """
        return {
            "una": self.una,
            "send_ptr": self.send_ptr,
            "high_sent": self.high_sent,
            "total_end": self._total_end,
            "epsn": self.epsn,
            "bytes_completed": self.stats.bytes_completed,
            "messages_completed": self.stats.messages_completed,
            "data_packets_sent": self.stats.data_packets_sent,
            "responder_restarts": self.config.recovery.responder_restarts,
        }

    # ------------------------------------------------------------------ post

    def post(self, wr):
        """Post a work request to the send queue."""
        wr.posted_ns = self.sim.now
        if wr.kind == "read":
            read_id = self._next_read_id
            self._next_read_id += 1
            self._pending_reads[read_id] = wr
            message = _Message(
                _Message.READ_REQUEST, wr, self._total_end, 1, 0, read_id=read_id
            )
        else:
            n_packets = -(-wr.size_bytes // self.config.mtu_payload)
            message = _Message(
                _Message.DATA, wr, self._total_end, n_packets, wr.size_bytes
            )
        self._enqueue_message(message)
        if _TRACE.enabled:
            _TRACE.session.on_post(self, wr, message)
        self.host.nic.notify_tx_ready(self)
        return wr

    def _enqueue_message(self, message):
        self._messages.append(message)
        self._total_end = message.end_psn + 1

    # ----------------------------------------------------------- tx source API

    def next_ready_ns(self):
        """NIC scheduler probe: when can this QP transmit next?  Control
        packets go at once; data needs a PSN not yet on the wire and room
        in the send window, and then waits for the pacing gate."""
        if self._ctrl_queue:
            return 0
        send_ptr = self.send_ptr
        if send_ptr < self._total_end and send_ptr - self.una < self.config.window_packets:
            return self._next_allowed_ns
        return None

    def pull(self):
        """NIC scheduler: take the next packet.  Returns (packet, priority)."""
        if self._ctrl_queue:
            return self._ctrl_queue.pop(0)
        psn = self.send_ptr
        config = self.config
        if psn >= self._total_end or psn - self.una >= config.window_packets:
            return None, 0
        now = self.sim.now
        packet = self._build_data_packet(psn, now)
        if _TRACE.enabled:
            _TRACE.session.on_data_tx(self, packet, psn, psn < self.high_sent)
        if psn < self.high_sent:
            self.stats.retransmitted_packets += 1
            # A retransmitted probe would alias queueing with recovery.
            self._rtt_probes.pop(psn, None)
        else:
            self.high_sent = psn + 1
            if self.on_rtt_sample is not None and packet.bth.ack_req:
                self._rtt_probes[psn] = now
        self.send_ptr = psn + 1
        self.stats.data_packets_sent += 1
        # Pacing: the gate reopens one packet time after it last opened
        # (or after now, if it stood open) at DCQCN's RC if attached, else
        # the static rate; with neither the NIC port is the only limiter.
        rp = self.rp
        rate = self.rate_bps if rp is None else rp.rate_bps
        if rate is None:
            self._next_allowed_ns = now
        else:
            rate = int(rate)
            gap_ns = packet.wire_bytes * 8 * SEC // (rate if rate > 1 else 1)
            gate = self._next_allowed_ns
            self._next_allowed_ns = (gate if gate > now else now) + gap_ns
        if rp is not None:
            rp.on_bytes_sent(packet.wire_bytes)
        if not self._rto.armed:
            self._rto.start(config.rto_ns)
        return packet, config.traffic_class.priority

    # ------------------------------------------------------------ packet build

    def _message_for(self, psn):
        for message in self._messages:
            if message.start_psn <= psn <= message.end_psn:
                return message
        raise LookupError("PSN %d not in any active message on qp%d" % (psn, self.qpn))

    def _build_data_packet(self, psn, now):
        messages = self._messages
        # Usually the oldest unacknowledged message is the one on the
        # wire; with several in flight, scan for the one holding ``psn``.
        message = messages[0] if messages else None
        if message is None or not 0 <= psn - message.start_psn < message.n_packets:
            message = self._message_for(psn)
        config = self.config
        kind = message.kind
        if kind == _Message.READ_REQUEST:
            opcode = BthOpcode.RDMA_READ_REQUEST
            payload = 0
            is_first = True
            is_last = True
            read_size = message.wr.size_bytes
        else:
            index = psn - message.start_psn
            mtu = config.mtu_payload
            payload = message.payload_total - index * mtu
            if payload > mtu:
                payload = mtu
            is_first = index == 0
            is_last = index == message.n_packets - 1
            if kind == _Message.READ_RESPONSE:
                opcode = _READ_RESPONSE_OPCODES[is_first][is_last]
            elif message.wr is not None and message.wr.kind == "send":
                opcode = _SEND_OPCODES[is_first][is_last]
            else:
                opcode = _WRITE_OPCODES[is_first][is_last]
            read_size = None
        tc = config.traffic_class
        host = self.host
        transport_bytes = UDP_HEADER_BYTES + BTH_BYTES + payload + ICRC_BYTES
        return Packet.rocev2(
            self.remote_mac,
            host.mac,
            Ipv4Header(
                host.ip,
                self.remote_ip,
                IPPROTO_UDP,
                tc.dscp,
                ECN_ECT0 if config.ecn_capable else ECN_NOT_ECT,
                IPV4_HEADER_BYTES + transport_bytes,
                host.nic.next_ip_id(),
            ),
            UdpHeader(self.src_udp_port, ROCEV2_UDP_PORT, transport_bytes),
            BaseTransportHeader(opcode, self.remote_qpn, psn & PSN_MASK, is_last),
            None,  # no AETH
            payload,
            None if tc.vlan_id is None else tc.vlan_tag(),
            now,
            (host.ip, self.qpn),
            _PacketCtx(psn, kind, is_first, is_last, message.read_id, read_size),
        )

    def _build_control(self, opcode, aeth, ctx, dscp=None, priority=None):
        tc = self.config.traffic_class
        host = self.host
        extra = AETH_BYTES if aeth is not None else 0
        packet = Packet.rocev2(
            self.remote_mac,
            host.mac,
            Ipv4Header(
                host.ip,
                self.remote_ip,
                IPPROTO_UDP,
                tc.dscp if dscp is None else dscp,
                ECN_NOT_ECT,
                IPV4_HEADER_BYTES + UDP_HEADER_BYTES + BTH_BYTES + extra + ICRC_BYTES,
                host.nic.next_ip_id(),
            ),
            UdpHeader(self.src_udp_port, ROCEV2_UDP_PORT),
            BaseTransportHeader(opcode, self.remote_qpn, self.epsn & PSN_MASK),
            aeth,
            0,  # no payload
            None if tc.vlan_id is None else tc.vlan_tag(),
            self.sim.now,
            (host.ip, self.qpn),
            ctx,
        )
        return packet, tc.priority if priority is None else priority

    def _queue_ctrl(self, packet, priority):
        if _TRACE.enabled:
            _TRACE.session.on_ctrl_created(self, packet)
        self._ctrl_queue.append((packet, priority))
        self.host.nic.notify_tx_ready(self)

    # -------------------------------------------------------------- rx dispatch

    def on_network_packet(self, packet):
        """Engine upcall for any packet addressed to this QP."""
        opcode = packet.bth.opcode
        if opcode is BthOpcode.CNP:
            self.stats.cnps_received += 1
            if self.rp is not None:
                self.rp.on_cnp()
        elif opcode is BthOpcode.ACKNOWLEDGE:
            self._on_ack(packet)
        else:
            self._on_data(packet)

    # responder ---------------------------------------------------------------

    def _on_data(self, packet):
        ctx = packet.context
        if packet.ip.ecn == ECN_CE:
            self._maybe_send_cnp()
        psn = ctx.psn
        if psn == self.epsn:
            if (
                self.config.require_posted_receives
                and ctx.is_msg_first
                and packet.bth.opcode.name.startswith("SEND")
                and self.recv_credits <= 0
            ):
                # Receiver not ready: no receive WQE for this SEND.
                self._send_rnr_nak()
                return
            self.epsn += 1
            self._gap_naks = 0
            self._accept(packet, ctx)
        elif psn > self.epsn:
            self.stats.out_of_order_discarded += 1
            # NAK when a gap opens, and once more when the PSN steps back
            # (the requester rewound, and lost the resent head again).
            # Further loss in the same gap waits for the RTO, the
            # backoff a congested path needs (DESIGN.md section 5).
            if not self._gap_naks or (psn <= self._gap_psn and self._gap_naks < 2):
                self._gap_naks += 1
                self._send_nak()
            self._gap_psn = psn
        elif ctx.is_msg_first and self.config.recovery.responder_restarts:
            # Go-back-0 firmware on both ends: seeing the first packet of
            # a message again means the sender restarted the message from
            # scratch -- reassembly state resets and earlier partial
            # progress is discarded (section 4.1).
            self.epsn = psn + 1
            self._gap_naks = 0
            self._accept(packet, ctx)
        else:
            # Duplicate (e.g. our ACK was lost); refresh the sender.
            self.stats.duplicates_received += 1
            self._send_ack()

    def _accept(self, packet, ctx):
        if ctx.kind == _Message.READ_REQUEST:
            self._enqueue_message(
                _Message(
                    _Message.READ_RESPONSE,
                    None,
                    self._total_end,
                    -(-ctx.read_size // self.config.mtu_payload),
                    ctx.read_size,
                    read_id=ctx.read_id,
                )
            )
            self.host.nic.notify_tx_ready(self)
            self._send_ack()
            return
        self._ack_backlog += 1
        if (
            self.config.require_posted_receives
            and ctx.is_msg_last
            and packet.bth.opcode.name.startswith("SEND")
        ):
            self.recv_credits -= 1  # this SEND consumed one receive WQE
        if ctx.is_msg_last:
            if ctx.kind == _Message.READ_RESPONSE:
                wr = self._pending_reads.pop(ctx.read_id, None)
                if wr is not None:
                    self._complete_wr(wr)
            elif self.on_message is not None:
                self.on_message(self, ctx.kind, packet.payload_bytes)
        if ctx.is_msg_last or self._ack_backlog >= self.config.ack_coalesce:
            self._send_ack()

    def _send_ack(self):
        self._ack_backlog = 0
        cum = self.epsn - 1
        aeth = Aeth(AethSyndrome.ACK, msn=cum & PSN_MASK)
        packet, priority = self._build_control(
            BthOpcode.ACKNOWLEDGE, aeth, _PacketCtx(ack_psn=cum)
        )
        self.stats.acks_sent += 1
        self._queue_ctrl(packet, priority)

    def _send_nak(self):
        aeth = Aeth(AethSyndrome.NAK, msn=self.epsn & PSN_MASK)
        packet, priority = self._build_control(
            BthOpcode.ACKNOWLEDGE, aeth, _PacketCtx(nak_psn=self.epsn)
        )
        self.stats.naks_sent += 1
        self._queue_ctrl(packet, priority)

    def _send_rnr_nak(self):
        aeth = Aeth(AethSyndrome.RNR_NAK, msn=self.epsn & PSN_MASK)
        ctx = _PacketCtx(nak_psn=self.epsn)
        packet, priority = self._build_control(BthOpcode.ACKNOWLEDGE, aeth, ctx)
        self.stats.rnr_naks_sent += 1
        self._queue_ctrl(packet, priority)

    def _maybe_send_cnp(self):
        """DCQCN notification point: at most one CNP per interval per QP."""
        now = self.sim.now
        if (
            self._last_cnp_ns is not None
            and now - self._last_cnp_ns < self.config.cnp_interval_ns
        ):
            return
        self._last_cnp_ns = now
        packet, _ = self._build_control(
            BthOpcode.CNP, None, _PacketCtx(), dscp=self.config.cnp_dscp
        )
        self.stats.cnps_sent += 1
        self._queue_ctrl(packet, self.config.cnp_priority)

    # requester ------------------------------------------------------------------

    def _on_ack(self, packet):
        ctx = packet.context
        if packet.aeth is not None and packet.aeth.syndrome == AethSyndrome.RNR_NAK:
            # Receiver not ready: rewind to the refused PSN and retry
            # after the backoff (IB RNR retry).
            self.stats.rnr_naks_received += 1
            nak_psn = ctx.nak_psn
            self.send_ptr = min(self.send_ptr, nak_psn)
            self._next_allowed_ns = self.sim.now + self.config.rnr_retry_delay_ns
            self._restart_rto()
            self.host.nic.notify_tx_ready(self)
            return
        if packet.aeth is not None and packet.aeth.is_nak:
            self.stats.naks_received += 1
            nak_psn = ctx.nak_psn
            if nak_psn < self.una:
                # A NAK below una was delayed or duplicated in flight:
                # everything beneath it is already cumulatively acked
                # (its message may be gone).  Acting on it would rewind
                # completed work, so discard it as a real NIC does.
                self.stats.stale_naks_discarded += 1
                return
            if not self.config.recovery.responder_restarts:
                # A NAK at E implies packets below E were received -- but
                # only when the responder banks partial progress.
                self._advance_una(nak_psn)
            if nak_psn < self.send_ptr:
                message = self._message_for(nak_psn)
                resume = self.config.recovery.resume_psn(nak_psn, message.start_psn)
                self.send_ptr = min(self.send_ptr, resume)
                if self.config.recovery.responder_restarts:
                    # Stateless restart: the send window references the
                    # fresh pass, not progress from abandoned ones.
                    self.una = min(self.una, resume)
                self.host.nic.notify_tx_ready(self)
            self._restart_rto()
        else:
            self._advance_una(ctx.ack_psn + 1)

    def _advance_una(self, new_una):
        if new_una <= self.una:
            return
        if self.on_rtt_sample is not None and self._rtt_probes:
            for psn in [p for p in self._rtt_probes if p < new_una]:
                self.on_rtt_sample(self.sim.now - self._rtt_probes.pop(psn))
        self.una = new_una
        if self.send_ptr < self.una:
            self.send_ptr = self.una
        while self._messages and self._messages[0].end_psn < self.una:
            message = self._messages.pop(0)
            if message.wr is not None and message.kind == _Message.DATA:
                self._complete_wr(message.wr)
            if message.kind == _Message.READ_RESPONSE:
                self.stats.messages_completed += 1
        self._restart_rto()
        self.host.nic.notify_tx_ready(self)

    def _complete_wr(self, wr):
        wr.completed_ns = self.sim.now
        self.stats.bytes_completed += wr.size_bytes
        self.stats.messages_completed += 1
        if _TRACE.enabled:
            _TRACE.session.on_cqe(self, wr)
        if wr.on_complete is not None:
            wr.on_complete(wr, self.sim.now)

    def _restart_rto(self):
        if self.una < self.high_sent:
            self._rto.start(self.config.rto_ns)
        else:
            self._rto.cancel()

    def _on_timeout(self):
        """Tail loss (lost last packet / lost ACK): rewind per policy."""
        if self.una >= self.high_sent:
            return
        self.stats.timeouts += 1
        if _TRACE.enabled:
            _TRACE.session.on_rto(self)
        message = self._message_for(self.una)
        resume = self.config.recovery.resume_psn(self.una, message.start_psn)
        self.send_ptr = min(self.send_ptr, resume)
        if self.config.recovery.responder_restarts:
            self.una = min(self.una, resume)
        else:
            self.send_ptr = max(self.una, self.send_ptr)
        self._rto.start(self.config.rto_ns)
        self.host.nic.notify_tx_ready(self)

    def __repr__(self):
        return "QueuePair(qp%d -> qp%s, una=%d, sent=%d, epsn=%d)" % (
            self.qpn,
            self.remote_qpn,
            self.una,
            self.send_ptr,
            self.epsn,
        )

"""A Reno-style TCP connection.

Deliberately faithful where it matters to the paper's figure 6 and
deliberately simple elsewhere:

* byte-sequence reliability with cumulative ACKs and an out-of-order
  reassembly buffer;
* slow start / congestion avoidance, fast retransmit on three duplicate
  ACKs with window halving, RTO with exponential backoff and a
  configurable minimum (drop recovery cost is the latency tail);
* kernel latency applied on both the send path (post -> first byte
  eligible) and the delivery path (last byte received -> application);
* no handshake/teardown (connections are long-lived in the measured
  services), no Nagle, no delayed ACK, effectively unbounded receive
  window.
"""

import collections

from repro.packets.ip import (
    ECN_CE,
    ECN_ECT0,
    ECN_NOT_ECT,
    IPPROTO_TCP,
    IPV4_HEADER_BYTES,
    Ipv4Header,
)
from repro.packets.packet import Packet
from repro.packets.tcp import FLAG_ACK, FLAG_ECE, TCP_HEADER_BYTES, TcpHeader
from repro.sim.timer import Timer
from repro.sim.units import MS, US


class TcpConfig:
    """Connection tunables."""

    def __init__(
        self,
        mss_bytes=1460,
        initial_cwnd_segments=10,
        min_rto_ns=5 * MS,
        max_rto_ns=200 * MS,
        initial_rto_ns=10 * MS,
        dupack_threshold=3,
        dscp=0,
        priority=1,
        max_cwnd_segments=512,
        ecn_enabled=False,
        dctcp_g=1.0 / 16,
    ):
        self.mss_bytes = mss_bytes
        self.initial_cwnd_segments = initial_cwnd_segments
        self.min_rto_ns = min_rto_ns
        self.max_rto_ns = max_rto_ns
        self.initial_rto_ns = initial_rto_ns
        self.dupack_threshold = dupack_threshold
        self.dscp = dscp
        self.priority = priority
        self.max_cwnd_segments = max_cwnd_segments
        # DCTCP extension: ECN-capable segments + fractional window cuts
        # proportional to the observed marking rate (Alizadeh et al.;
        # the deployment context is the paper's own "Tuning ECN for Data
        # Center Networks" [38] line of work).
        self.ecn_enabled = ecn_enabled
        self.dctcp_g = dctcp_g


class _AppMessage:
    __slots__ = ("end_byte", "posted_ns", "on_delivered")

    def __init__(self, end_byte, posted_ns, on_delivered):
        self.end_byte = end_byte
        self.posted_ns = posted_ns
        self.on_delivered = on_delivered


class TcpStats:
    def __init__(self):
        self.segments_sent = 0
        self.retransmits = 0
        self.fast_retransmits = 0
        self.rtos = 0
        self.bytes_delivered = 0
        self.messages_delivered = 0
        self.ce_acks = 0
        self.dctcp_cuts = 0


class TcpConnection:
    """One direction-agnostic connection endpoint (registered as a NIC
    transmit source)."""

    def __init__(self, stack, local_port, remote_ip, remote_mac, remote_port, config=None):
        self.stack = stack
        self.host = stack.host
        self.sim = stack.sim
        self.config = config or TcpConfig()
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_mac = remote_mac
        self.remote_port = remote_port
        self.stats = TcpStats()
        mss = self.config.mss_bytes
        # Sender state (byte sequence space).
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_buffer_end = 0  # bytes the app has made eligible
        self._pending_kernel = 0  # bytes posted, still crossing the kernel
        self.cwnd = self.config.initial_cwnd_segments * mss
        self.ssthresh = self.config.max_cwnd_segments * mss
        self._dupacks = 0
        self._recover = 0  # NewReno-ish recovery point
        self._in_recovery = False
        self._retransmit_queue = []  # seqs to resend ahead of new data
        self._rto_timer = Timer(self.sim, self._on_rto, name="tcp.rto")
        self._rto_ns = self.config.initial_rto_ns
        self._srtt = None
        self._rttvar = None
        self._send_times = {}  # seq -> send time, for RTT samples
        # The peer endpoint (simulation-level shortcut for app framing):
        # message boundaries posted here are registered on the peer.
        self.peer = None
        # Receiver state.
        self.rcv_nxt = 0
        self._ooo = {}  # seq -> payload_len of out-of-order segments
        self._acks_pending = collections.deque()  # CE flag per pending ACK
        # DCTCP sender state.
        self._dctcp_alpha = 0.0
        self._dctcp_window_end = 0
        self._dctcp_acked = 0
        self._dctcp_marked = 0
        self._rx_messages = collections.deque()
        self._delivered_bytes = 0

    # -- application API ---------------------------------------------------------

    def send_message(self, nbytes, on_delivered=None):
        """Stream ``nbytes``; ``on_delivered(latency_ns)`` fires at the
        *receiver's* application once the last byte crosses its kernel."""
        if nbytes <= 0:
            raise ValueError("messages carry at least one byte")
        posted = self.sim.now
        end = self.snd_buffer_end + self._pending_kernel + nbytes
        self.peer.expect_message(end, posted, on_delivered)
        self._pending_kernel += nbytes
        delay = self.stack.kernel.sample_ns()
        self.sim.schedule(delay, self._kernel_send_done, nbytes)

    def _kernel_send_done(self, nbytes):
        self._pending_kernel -= nbytes
        self.snd_buffer_end += nbytes
        self.host.nic.notify_tx_ready(self)

    # -- NIC source API -------------------------------------------------------------

    def next_ready_ns(self):
        """NIC scheduler probe: an ACK or a retransmission is owed, or
        there is new data and room in the congestion window."""
        if self._acks_pending or self._retransmit_queue:
            return 0
        snd_nxt = self.snd_nxt
        if snd_nxt < self.snd_buffer_end and snd_nxt - self.snd_una < self.cwnd:
            return 0
        return None

    def pull(self):
        if self._acks_pending:
            # One ACK per received data segment: duplicate ACKs are the
            # sender's loss signal, so they must not be coalesced away.
            # DCTCP: the ACK echoes whether that segment was CE-marked.
            ce = self._acks_pending.popleft()
            return self._build_segment(self.snd_nxt, 0, echo_ce=ce), self.config.priority
        if self._retransmit_queue:
            seq = self._retransmit_queue.pop(0)
            if seq >= self.snd_una:
                length = min(self.config.mss_bytes, self.snd_buffer_end - seq)
                if length > 0:
                    self.stats.retransmits += 1
                    self._arm_rto()
                    return self._build_segment(seq, length), self.config.priority
        seq = self.snd_nxt
        if seq >= self.snd_buffer_end or seq - self.snd_una >= self.cwnd:
            return None, 0
        length = min(self.config.mss_bytes, self.snd_buffer_end - seq)
        self.snd_nxt += length
        self._send_times[seq] = self.sim.now
        self.stats.segments_sent += 1
        self._arm_rto()
        return self._build_segment(seq, length), self.config.priority

    def _build_segment(self, seq, length, echo_ce=False):
        config = self.config
        host = self.host
        rcv_nxt = self.rcv_nxt
        return Packet.tcp_segment(
            self.remote_mac,
            host.mac,
            Ipv4Header(
                host.ip,
                self.remote_ip,
                IPPROTO_TCP,
                config.dscp,
                ECN_ECT0 if (config.ecn_enabled and length > 0) else ECN_NOT_ECT,
                IPV4_HEADER_BYTES + TCP_HEADER_BYTES + length,
                host.nic.next_ip_id(),
            ),
            TcpHeader(
                self.local_port,
                self.remote_port,
                seq & 0xFFFFFFFF,
                rcv_nxt & 0xFFFFFFFF,
                FLAG_ACK | FLAG_ECE if echo_ce else FLAG_ACK,
            ),
            length,
            None,  # untagged
            self.sim.now,
            (host.ip, self.local_port),
            {"seq": seq, "len": length, "ack": rcv_nxt, "ece": echo_ce},
        )

    # -- receive path ------------------------------------------------------------------

    def on_segment(self, packet):
        ctx = packet.context
        self._process_ack(ctx["ack"], ece=ctx.get("ece", False))
        if ctx["len"] > 0:
            self._process_data(ctx["seq"], ctx["len"])
            self._acks_pending.append(packet.ip.ecn == ECN_CE)
            self.host.nic.notify_tx_ready(self)

    def _process_data(self, seq, length):
        if seq == self.rcv_nxt:
            self.rcv_nxt += length
            # Absorb any buffered continuation.
            while self.rcv_nxt in self._ooo:
                self.rcv_nxt += self._ooo.pop(self.rcv_nxt)
            self._deliver_up_to(self.rcv_nxt)
        elif seq > self.rcv_nxt:
            self._ooo[seq] = length
        # seq < rcv_nxt: duplicate; the ACK we are about to send handles it.

    def _deliver_up_to(self, byte_count):
        while self._rx_messages and self._rx_messages[0].end_byte <= byte_count:
            message = self._rx_messages.popleft()
            delay = self.stack.kernel.sample_ns()
            self.sim.schedule(delay, self._deliver_message, message)

    def _deliver_message(self, message):
        self.stats.messages_delivered += 1
        self.stats.bytes_delivered = message.end_byte
        if message.on_delivered is not None:
            message.on_delivered(self.sim.now - message.posted_ns)

    def expect_message(self, end_byte, posted_ns, on_delivered):
        """Peer-side registration of a message boundary (installed by the
        stack when the sender posts)."""
        self._rx_messages.append(_AppMessage(end_byte, posted_ns, on_delivered))
        if end_byte <= self.rcv_nxt:
            self._deliver_up_to(self.rcv_nxt)

    # -- ACK clockwork ----------------------------------------------------------------------

    def _process_ack(self, ack, ece=False):
        config = self.config
        mss = config.mss_bytes
        if ack > self.snd_una:
            if config.ecn_enabled:
                self._dctcp_account(ack - self.snd_una, ece)
            # RTT sample from the earliest newly-acked segment.
            sent_at = self._send_times.pop(self.snd_una, None)
            if sent_at is not None:
                self._rtt_sample(self.sim.now - sent_at)
            for seq in list(self._send_times):
                if seq < ack:
                    self._send_times.pop(seq, None)
            self.snd_una = ack
            self._dupacks = 0
            if self._in_recovery and ack >= self._recover:
                self._in_recovery = False
                self.cwnd = self.ssthresh
            elif self.cwnd < self.ssthresh:
                self.cwnd = min(self.cwnd + mss, config.max_cwnd_segments * mss)
            else:
                self.cwnd += max(1, mss * mss // self.cwnd)
                self.cwnd = min(self.cwnd, config.max_cwnd_segments * mss)
            if self.snd_una >= self.snd_nxt:
                self._rto_timer.cancel()
            else:
                self._arm_rto()
            self.host.nic.notify_tx_ready(self)
        elif ack == self.snd_una and self.snd_nxt > self.snd_una:
            self._dupacks += 1
            if self._dupacks == config.dupack_threshold and not self._in_recovery:
                # Fast retransmit + window halving.
                self.stats.fast_retransmits += 1
                flight = self.snd_nxt - self.snd_una
                self.ssthresh = max(2 * mss, flight // 2)
                self.cwnd = self.ssthresh
                self._in_recovery = True
                self._recover = self.snd_nxt
                self._retransmit_queue.append(self.snd_una)
                self.host.nic.notify_tx_ready(self)

    def _dctcp_account(self, acked_bytes, ece):
        """DCTCP: track the fraction of CE-echoed bytes per window and
        cut the window in proportion (cwnd *= 1 - alpha/2) once per RTT
        with marks."""
        self._dctcp_acked += acked_bytes
        if ece:
            self._dctcp_marked += acked_bytes
            self.stats.ce_acks += 1
        if self.snd_una < self._dctcp_window_end or self._dctcp_acked == 0:
            return
        fraction = self._dctcp_marked / self._dctcp_acked
        g = self.config.dctcp_g
        self._dctcp_alpha = (1 - g) * self._dctcp_alpha + g * fraction
        if self._dctcp_marked and not self._in_recovery:
            mss = self.config.mss_bytes
            self.cwnd = max(2 * mss, int(self.cwnd * (1 - self._dctcp_alpha / 2)))
            # DCTCP exits slow start on the first marked window.
            self.ssthresh = max(self.cwnd, 2 * mss)
            self.stats.dctcp_cuts += 1
        self._dctcp_acked = 0
        self._dctcp_marked = 0
        self._dctcp_window_end = self.snd_nxt

    def _rtt_sample(self, rtt_ns):
        if self._srtt is None:
            self._srtt = rtt_ns
            self._rttvar = rtt_ns / 2
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - rtt_ns)
            self._srtt = 0.875 * self._srtt + 0.125 * rtt_ns
        self._rto_ns = int(
            min(
                self.config.max_rto_ns,
                max(self.config.min_rto_ns, self._srtt + 4 * self._rttvar),
            )
        )

    def _arm_rto(self):
        self._rto_timer.start(self._rto_ns)

    def _on_rto(self):
        if self.snd_una >= self.snd_nxt:
            return
        self.stats.rtos += 1
        # Classic Reno timeout: collapse to one segment, go back to una.
        self.ssthresh = max(2 * self.config.mss_bytes, (self.snd_nxt - self.snd_una) // 2)
        self.cwnd = self.config.mss_bytes
        self.snd_nxt = self.snd_una
        self._in_recovery = False
        self._dupacks = 0
        self._send_times.clear()
        self._rto_ns = min(self.config.max_rto_ns, self._rto_ns * 2)
        self._arm_rto()
        self.host.nic.notify_tx_ready(self)

    def __repr__(self):
        return "TcpConnection(:%d -> %d:%d, una=%d, nxt=%d, cwnd=%d)" % (
            self.local_port,
            self.remote_ip,
            self.remote_port,
            self.snd_una,
            self.snd_nxt,
            self.cwnd,
        )

"""What "the same run" means, for every pinned scenario.

A packet run pins a :class:`WireDigest`: a running CRC-32 over every
frame clocked onto any link -- its time, link, direction, fate and
headers -- with an end-of-run walk of the fabric folded in.  A run with
no wire (``engine_churn``, the flow tier) pins a :func:`digest` of its
integer run tuple.  docs/benchmarking.md lists what each covers.
"""

import hashlib
import struct
import zlib

from repro.obs import wrap_transmit

_FRAME = struct.Struct("<qIBBHQ").pack  # now, link, direction, fate, size, dst MAC
_IP = struct.Struct("<IIBBbHH").pack  # src, dst, DSCP, ECN, PCP, L4 ports
_BTH = struct.Struct("<BII").pack  # opcode, QPN, PSN
_AETH = struct.Struct("<BI").pack  # syndrome, MSN
_TCP = struct.Struct("<IIB").pack  # seq, ack, flags
_ARP = struct.Struct("<BII").pack  # op, sender IP, target IP
_PAUSE = struct.Struct("<8i").pack  # quanta per priority, -1 untouched


def digest(run_tuple):
    """A short stable digest of a nested int/str tuple."""
    return hashlib.sha256(repr(run_tuple).encode()).hexdigest()[:16]


def _fate(link):
    """Weighted link counters: their delta around one transmit names the
    frame's fate (1 delivered, 2 lost, 6 injected drop, 10 corrupted,
    17 delayed)."""
    return (link.delivered + 2 * link.lost + 4 * link.injected_drops
            + 8 * link.corrupted + 16 * link.reordered)


def _header_key(packet):
    """The frame's headers, packed as integers."""
    ip = packet.ip
    if ip is None:  # a pause or an ARP frame
        if packet.pause is not None:
            return _PAUSE(*[-1 if q is None else q for q in packet.pause.quanta])
        arp = packet.arp
        return _ARP(arp.op, arp.sender_ip, arp.target_ip)
    vlan = packet.vlan
    tcp = packet.tcp
    l4 = packet.udp if tcp is None else tcp  # every IP frame is UDP or TCP
    key = _IP(ip.src, ip.dst, ip.dscp, ip.ecn, -1 if vlan is None else vlan.pcp,
              l4.src_port, l4.dst_port)
    if tcp is not None:
        return key + _TCP(tcp.seq, tcp.ack, tcp.flags)
    bth = packet.bth
    if bth is not None:
        key += _BTH(bth.opcode, bth.dest_qp, bth.psn)
        aeth = packet.aeth
        if aeth is not None:
            key += _AETH(aeth.syndrome, aeth.msn)
    return key


class WireDigest:
    """The behaviour digest of one packet run on ``fabric``.

    Construct it after the fabric is built and before it boots; read
    :meth:`hexdigest` when the run is over.  Attaching changes nothing
    the run does: no event, no RNG draw, no counter.
    """

    def __init__(self, fabric):
        self.fabric = fabric
        self.crc = 0
        for index, link in enumerate(fabric.links):
            wrap_transmit(link, self._frame, index, link)

    def _frame(self, index, link, original, from_port, packet):
        now = link.sim.now
        before = _fate(link)
        serialization_ns = original(from_port, packet)
        self.crc = zlib.crc32(
            _FRAME(now, index, from_port is link.port_b, _fate(link) - before,
                   packet.size_bytes, packet.dst_mac) + _header_key(packet),
            self.crc)
        return serialization_ns

    def walk(self):
        """The end-of-run state the wire does not show, as integers."""
        values = []
        for host in self.fabric.hosts:
            values += (host.nic.stats.pause_generated, host.nic.watchdog_trips)
            for qp in host.rdma.qps if hasattr(host, "rdma") else ():
                values += (qp.qpn, qp.stats.messages_completed, qp.stats.bytes_completed)
            for conn in host.tcp.connections if hasattr(host, "tcp") else ():
                values += (conn.local_port, conn.stats.bytes_delivered, conn.stats.retransmits)
        for sw in self.fabric.switches:
            values += (sw.counters.rx_packets, sw.counters.tx_enqueued,
                       sw.counters.total_drops, sw.pause_frames_sent(),
                       sw.pause_frames_received(), sw.watchdog_trips(),
                       sw.buffer.peak_shared_in_use)
        return values

    def hexdigest(self):
        """16 hex digits: the wire CRC, then the CRC of :meth:`walk` -- a
        moved fingerprint says which half of the run changed."""
        values = self.walk()
        walk_crc = zlib.crc32(struct.pack("<%dq" % len(values), *values))
        return "%08x%08x" % (self.crc, walk_crc)

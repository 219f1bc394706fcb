"""The simulation-level packet envelope.

Every object travelling across a simulated link is a :class:`Packet`.  A
packet either carries a normal Ethernet frame (RoCEv2 data, TCP, ARP) or a
MAC control frame (PFC pause), plus simulation metadata: creation time, an
opaque flow label, and a monotonically increasing uid for tracing.

Priority classification is deliberately *not* baked into the packet: a
switch configured for VLAN-based PFC reads the 802.1Q PCP, a switch
configured for DSCP-based PFC reads the IP DSCP.  :func:`resolve_priority`
implements both policies, which lets the experiments of section 3 show the
same packet stream behaving differently under the two configurations.
"""

import enum
import itertools

from repro.packets.ethernet import (
    ETH_FCS_BYTES,
    ETH_HEADER_BYTES,
    ETH_WIRE_OVERHEAD_BYTES,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_MAC_CONTROL,
    VLAN_TAG_BYTES,
    mac_to_str,
)
from repro.packets.ip import IPPROTO_TCP, IPPROTO_UDP, IPV4_HEADER_BYTES
from repro.packets.rocev2 import AETH_BYTES, BTH_BYTES, ICRC_BYTES, ROCEV2_UDP_PORT
from repro.packets.tcp import TCP_HEADER_BYTES
from repro.packets.udp import UDP_HEADER_BYTES

_uid_counter = itertools.count()


class PriorityMode(enum.Enum):
    """How a device derives the PFC priority of a data packet."""

    VLAN = "vlan"  # 802.1Q PCP field (the original design, figure 3a)
    DSCP = "dscp"  # IP DSCP field (the paper's contribution, figure 3b)


class Packet:
    """One simulated frame.

    Exactly one of the layer stacks is populated:

    * PFC pause:  ``pause`` is a :class:`~repro.packets.pause.PfcPauseFrame`.
    * ARP:        ``arp`` is an :class:`~repro.packets.arp.ArpPacket`.
    * RoCEv2:     ``ip`` + ``udp`` + ``bth`` (+ optional ``aeth``).
    * TCP:        ``ip`` + ``tcp``.

    ``payload_bytes`` counts application payload only.  ``size_bytes``
    (the full buffered frame) and ``wire_bytes`` (plus preamble, SFD and
    IPG, as clocked on the wire) are measured from the populated layers
    at construction: layers are immutable afterwards except for
    ``dst_mac`` (MAC rewrite, size-irrelevant) and ``vlan``, whose setter
    re-measures -- every buffer admit, scheduler pick and link
    serialization reads the size, several times per hop.
    """

    __slots__ = (
        "uid",
        "dst_mac",
        "src_mac",
        "_vlan",
        "ip",
        "udp",
        "tcp",
        "bth",
        "aeth",
        "pause",
        "arp",
        "payload_bytes",
        "created_ns",
        "flow",
        "context",
        "size_bytes",
        "wire_bytes",
        "_ftuple",
    )

    def __init__(
        self,
        dst_mac=0,
        src_mac=0,
        vlan=None,
        ip=None,
        udp=None,
        tcp=None,
        bth=None,
        aeth=None,
        pause=None,
        arp=None,
        payload_bytes=0,
        created_ns=0,
        flow=None,
        context=None,
    ):
        self.uid = next(_uid_counter)
        self.dst_mac = dst_mac
        self.src_mac = src_mac
        self._vlan = vlan
        self.ip = ip
        self.udp = udp
        self.tcp = tcp
        self.bth = bth
        self.aeth = aeth
        self.pause = pause
        self.arp = arp
        self.payload_bytes = payload_bytes
        self.created_ns = created_ns
        self.flow = flow
        # Free-form slot for transports to stash per-packet state (e.g. the
        # message a segment belongs to); never read by switches.
        self.context = context
        self._ftuple = None  # five_tuple, computed on first use
        self._measure()

    @property
    def vlan(self):
        """The 802.1Q tag, or None.  Settable: switches strip the tag when
        forwarding out an untagged (access/server-facing) port."""
        return self._vlan

    @vlan.setter
    def vlan(self, tag):
        self._vlan = tag
        self._measure()

    def _measure(self):
        """Set ``size_bytes`` / ``wire_bytes`` from the populated layers."""
        size = ETH_HEADER_BYTES + ETH_FCS_BYTES
        if self._vlan is not None:
            size += VLAN_TAG_BYTES
        if self.pause is not None:
            size += self.pause.size_bytes
        elif self.arp is not None:
            size += self.arp.size_bytes
        else:
            if self.ip is not None:
                size += IPV4_HEADER_BYTES
                if self.udp is not None:
                    size += UDP_HEADER_BYTES
                    if self.bth is not None:
                        size += BTH_BYTES + ICRC_BYTES
                        if self.aeth is not None:
                            size += AETH_BYTES
                elif self.tcp is not None:
                    size += TCP_HEADER_BYTES
            size += self.payload_bytes
        self.size_bytes = size
        self.wire_bytes = size + ETH_WIRE_OVERHEAD_BYTES

    # -- factories ----------------------------------------------------------

    @classmethod
    def rocev2(
        cls,
        dst_mac,
        src_mac,
        ip,
        udp,
        bth,
        aeth=None,
        payload_bytes=0,
        vlan=None,
        created_ns=0,
        flow=None,
        context=None,
    ):
        """A RoCEv2 data/ack packet (Ethernet/IPv4/UDP/BTH[/AETH])."""
        if udp.dst_port != ROCEV2_UDP_PORT:
            raise ValueError(
                "RoCEv2 requires UDP destination port %d, got %d"
                % (ROCEV2_UDP_PORT, udp.dst_port)
            )
        return cls(
            dst_mac=dst_mac,
            src_mac=src_mac,
            vlan=vlan,
            ip=ip,
            udp=udp,
            bth=bth,
            aeth=aeth,
            payload_bytes=payload_bytes,
            created_ns=created_ns,
            flow=flow,
            context=context,
        )

    @classmethod
    def tcp_segment(
        cls, dst_mac, src_mac, ip, tcp, payload_bytes=0, vlan=None, created_ns=0, flow=None, context=None
    ):
        """A TCP segment (Ethernet/IPv4/TCP)."""
        return cls(
            dst_mac=dst_mac,
            src_mac=src_mac,
            vlan=vlan,
            ip=ip,
            tcp=tcp,
            payload_bytes=payload_bytes,
            created_ns=created_ns,
            flow=flow,
            context=context,
        )

    @classmethod
    def pfc_pause(cls, dst_mac, src_mac, pause, created_ns=0):
        """A PFC pause frame.  Note: never VLAN-tagged (figure 3)."""
        return cls(dst_mac=dst_mac, src_mac=src_mac, pause=pause, created_ns=created_ns)

    @classmethod
    def arp_packet(cls, dst_mac, src_mac, arp, created_ns=0):
        """An ARP request/reply frame."""
        return cls(dst_mac=dst_mac, src_mac=src_mac, arp=arp, created_ns=created_ns)

    # -- classification -----------------------------------------------------

    @property
    def is_pause(self):
        return self.pause is not None

    @property
    def is_arp(self):
        return self.arp is not None

    @property
    def is_rocev2(self):
        return self.bth is not None

    @property
    def is_tcp(self):
        return self.tcp is not None

    @property
    def ethertype(self):
        if self.pause is not None:
            return ETHERTYPE_MAC_CONTROL
        if self.arp is not None:
            return ETHERTYPE_ARP
        return ETHERTYPE_IPV4

    @property
    def five_tuple(self):
        """(src_ip, dst_ip, protocol, src_port, dst_port) for ECMP hashing.

        Computed once per packet -- ECMP re-hashes it at every Clos tier.
        """
        ftuple = self._ftuple
        if ftuple is not None:
            return ftuple
        ip = self.ip
        if ip is None:
            return None
        if self.udp is not None:
            ftuple = (ip.src, ip.dst, IPPROTO_UDP, self.udp.src_port, self.udp.dst_port)
        elif self.tcp is not None:
            ftuple = (ip.src, ip.dst, IPPROTO_TCP, self.tcp.src_port, self.tcp.dst_port)
        else:
            ftuple = (ip.src, ip.dst, ip.protocol, 0, 0)
        self._ftuple = ftuple
        return ftuple

    def __repr__(self):
        if self.pause is not None:
            body = repr(self.pause)
        elif self.arp is not None:
            body = repr(self.arp)
        elif self.bth is not None:
            body = repr(self.bth)
        elif self.tcp is not None:
            body = repr(self.tcp)
        else:
            body = "raw"
        return "Packet(#%d, %s -> %s, %s, %dB)" % (
            self.uid,
            mac_to_str(self.src_mac),
            mac_to_str(self.dst_mac),
            body,
            self.size_bytes,
        )


def resolve_priority(packet, mode, dscp_to_priority=None, default_priority=0):
    """Derive the PFC priority of a data packet under a classification mode.

    * Under :attr:`PriorityMode.VLAN`, priority is the 802.1Q PCP; untagged
      packets fall back to ``default_priority``.  (This is why VLAN-based
      PFC forces trunk-mode ports -- an untagged packet cannot carry a
      priority.)
    * Under :attr:`PriorityMode.DSCP`, priority is looked up from the IP
      DSCP via ``dscp_to_priority`` (identity modulo 8 when omitted, the
      paper's "we simply map DSCP value i to PFC priority i").  Non-IP
      packets (e.g. ARP) fall back to ``default_priority``.

    Pause frames are MAC *control* frames: they are never classified or
    queued, and callers must handle them before calling this function.
    """
    if packet.is_pause:
        raise ValueError("pause frames are control frames and carry no data priority")
    if mode == PriorityMode.VLAN:
        if packet.vlan is not None:
            return packet.vlan.pcp
        return default_priority
    if mode == PriorityMode.DSCP:
        if packet.ip is not None:
            dscp = packet.ip.dscp
            if dscp_to_priority is not None:
                return dscp_to_priority.get(dscp, default_priority)
            return dscp % 8
        return default_priority
    raise ValueError("unknown priority mode: %r" % (mode,))


def compile_priority_resolver(mode, dscp_to_priority=None, default_priority=0):
    """Bake a classification policy into a fast ``fn(packet) -> priority``.

    Semantically identical to calling :func:`resolve_priority` with the
    same arguments, with the mode dispatch and table binding done once
    instead of per packet.  Devices on the forwarding hot path compile
    a resolver whenever their :class:`~repro.switch.pfc.PfcConfig`
    changes (configs are replaced, never mutated, so object identity is
    a sound cache key).

    Unlike :func:`resolve_priority`, the compiled function does *not*
    reject pause frames -- callers classify only data packets, having
    already branched on ``packet.is_pause``.
    """
    if mode == PriorityMode.VLAN:
        def classify(packet):
            vlan = packet._vlan
            return default_priority if vlan is None else vlan.pcp
    elif mode == PriorityMode.DSCP:
        if dscp_to_priority is None:
            def classify(packet):
                ip = packet.ip
                return default_priority if ip is None else ip.dscp % 8
        else:
            lookup = dscp_to_priority.get
            def classify(packet):
                ip = packet.ip
                return default_priority if ip is None else lookup(ip.dscp, default_priority)
    else:
        raise ValueError("unknown priority mode: %r" % (mode,))
    return classify

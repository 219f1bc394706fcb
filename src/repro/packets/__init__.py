"""Packet header models.

The paper's section 3 (figure 3) turns on the fields of the VLAN tag,
the IPv4 DSCP field and the PFC pause frame, so this subpackage models
each header as a structured object with its fields range-checked at
construction.  The discrete-event simulator passes these objects
around, and :class:`~repro.packets.packet.Packet` sizes each frame from
the header byte counts (section 5.4's 1086-byte RoCEv2 frame).

Layers provided:

* :mod:`~repro.packets.ethernet` -- Ethernet II constants, 802.1Q VLAN tag.
* :mod:`~repro.packets.ip`       -- IPv4 header with DSCP and ECN.
* :mod:`~repro.packets.udp`      -- UDP header (RoCEv2 runs on port 4791).
* :mod:`~repro.packets.rocev2`   -- InfiniBand BTH / AETH carried in UDP,
  CNP (DCQCN congestion notification packet).
* :mod:`~repro.packets.pause`    -- 802.1Qbb PFC pause frame and 802.3x
  global pause.
* :mod:`~repro.packets.arp`      -- ARP request/reply (the deadlock in
  section 4.2 hinges on ARP/MAC-table interplay).
* :mod:`~repro.packets.packet`   -- the simulation-level envelope with
  convenience accessors (five-tuple, priority resolution, sizes).
"""

from repro.packets.arp import ArpPacket
from repro.packets.ethernet import (
    BROADCAST_MAC,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_MAC_CONTROL,
    ETHERTYPE_VLAN,
    VlanTag,
    mac_to_str,
)
from repro.packets.ip import (
    ECN_CE,
    ECN_ECT0,
    ECN_ECT1,
    ECN_NOT_ECT,
    IPPROTO_TCP,
    IPPROTO_UDP,
    Ipv4Header,
    ip_to_str,
)
from repro.packets.packet import Packet, PriorityMode, resolve_priority
from repro.packets.tcp import TcpHeader
from repro.packets.pause import (
    GLOBAL_PAUSE_OPCODE,
    PFC_PAUSE_OPCODE,
    PAUSE_QUANTUM_BITS,
    PfcPauseFrame,
    pause_quanta_to_ns,
    ns_to_pause_quanta,
)
from repro.packets.rocev2 import (
    AETH_BYTES,
    BTH_BYTES,
    ICRC_BYTES,
    ROCEV2_UDP_PORT,
    Aeth,
    BthOpcode,
    BaseTransportHeader,
)
from repro.packets.udp import UdpHeader

__all__ = [
    "ArpPacket",
    "VlanTag",
    "mac_to_str",
    "BROADCAST_MAC",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_VLAN",
    "ETHERTYPE_ARP",
    "ETHERTYPE_MAC_CONTROL",
    "Ipv4Header",
    "ip_to_str",
    "ECN_NOT_ECT",
    "ECN_ECT0",
    "ECN_ECT1",
    "ECN_CE",
    "IPPROTO_UDP",
    "IPPROTO_TCP",
    "UdpHeader",
    "BaseTransportHeader",
    "BthOpcode",
    "Aeth",
    "ROCEV2_UDP_PORT",
    "BTH_BYTES",
    "AETH_BYTES",
    "ICRC_BYTES",
    "PfcPauseFrame",
    "PFC_PAUSE_OPCODE",
    "GLOBAL_PAUSE_OPCODE",
    "PAUSE_QUANTUM_BITS",
    "pause_quanta_to_ns",
    "ns_to_pause_quanta",
    "Packet",
    "PriorityMode",
    "resolve_priority",
    "TcpHeader",
]

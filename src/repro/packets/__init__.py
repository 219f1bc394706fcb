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

import importlib

#: re-exported name -> the submodule that defines it, resolved on first
#: use (PEP 562): the flow tier reads two constants from ``ip`` and
#: ``rocev2`` and must not load the packet envelope and pause frames.
_EXPORTS = {
    "ArpPacket": "repro.packets.arp",
    "VlanTag": "repro.packets.ethernet",
    "mac_to_str": "repro.packets.ethernet",
    "BROADCAST_MAC": "repro.packets.ethernet",
    "ETHERTYPE_IPV4": "repro.packets.ethernet",
    "ETHERTYPE_VLAN": "repro.packets.ethernet",
    "ETHERTYPE_ARP": "repro.packets.ethernet",
    "ETHERTYPE_MAC_CONTROL": "repro.packets.ethernet",
    "Ipv4Header": "repro.packets.ip",
    "ip_to_str": "repro.packets.ip",
    "ECN_NOT_ECT": "repro.packets.ip",
    "ECN_ECT0": "repro.packets.ip",
    "ECN_ECT1": "repro.packets.ip",
    "ECN_CE": "repro.packets.ip",
    "IPPROTO_UDP": "repro.packets.ip",
    "IPPROTO_TCP": "repro.packets.ip",
    "UdpHeader": "repro.packets.udp",
    "BaseTransportHeader": "repro.packets.rocev2",
    "BthOpcode": "repro.packets.rocev2",
    "Aeth": "repro.packets.rocev2",
    "ROCEV2_UDP_PORT": "repro.packets.rocev2",
    "BTH_BYTES": "repro.packets.rocev2",
    "AETH_BYTES": "repro.packets.rocev2",
    "ICRC_BYTES": "repro.packets.rocev2",
    "PfcPauseFrame": "repro.packets.pause",
    "PFC_PAUSE_OPCODE": "repro.packets.pause",
    "GLOBAL_PAUSE_OPCODE": "repro.packets.pause",
    "PAUSE_QUANTUM_BITS": "repro.packets.pause",
    "pause_quanta_to_ns": "repro.packets.pause",
    "ns_to_pause_quanta": "repro.packets.pause",
    "Packet": "repro.packets.packet",
    "PriorityMode": "repro.packets.packet",
    "resolve_priority": "repro.packets.packet",
    "TcpHeader": "repro.packets.tcp",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

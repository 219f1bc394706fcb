"""Hosts: a NIC plus an address identity and protocol dispatch.

A :class:`Host` owns one :class:`~repro.nic.nic.Nic`, an (IP, MAC) pair,
and a registry of protocol handlers that the transport engines
(:mod:`repro.rdma`, :mod:`repro.tcp`) install.  On boot it announces
itself with a gratuitous ARP, which is how the ToR's ARP and MAC tables
get populated (and whose *absence* after a server dies is what strands
the "incomplete" ARP entry of section 4.2).
"""

from repro.packets.arp import ArpPacket
from repro.packets.ethernet import BROADCAST_MAC
from repro.packets.packet import Packet


class AddressDirectory:
    """The experiment's control plane: IP -> host resolution.

    Real deployments resolve next-hop MACs with ARP and configuration
    systems; experiments here register every host once and transports
    look peers up directly.
    """

    def __init__(self):
        self._by_ip = {}

    def register(self, host):
        if host.ip in self._by_ip:
            raise ValueError("duplicate IP %r" % (host.ip,))
        self._by_ip[host.ip] = host

    def __len__(self):
        return len(self._by_ip)

    def __iter__(self):
        return iter(self._by_ip.values())


class Host:
    """One server: NIC + identity + protocol dispatch."""

    def __init__(self, sim, name, ip, mac, nic_config=None, pfc_config=None, directory=None):
        from repro.nic.nic import Nic

        self.sim = sim
        self.name = name
        self.ip = ip
        self.mac = mac
        self.nic = Nic(sim, "%s.nic" % name, mac, config=nic_config, pfc_config=pfc_config)
        self.nic.rx_handler = self._dispatch
        self.directory = directory
        if directory is not None:
            directory.register(self)
        self._handlers = {}
        self.alive = True

    @property
    def port(self):
        """The NIC's single port (connect this to a ToR)."""
        return self.nic.port

    def install_handler(self, kind, handler):
        """Register a packet handler: ``kind`` is 'rocev2', 'tcp' or 'arp'."""
        self._handlers[kind] = handler

    def boot(self):
        """Announce with a gratuitous ARP (populates ToR ARP+MAC tables)."""
        announce = ArpPacket.reply(
            sender_mac=self.mac, sender_ip=self.ip, target_mac=BROADCAST_MAC, target_ip=self.ip
        )
        packet = Packet.arp_packet(
            dst_mac=BROADCAST_MAC, src_mac=self.mac, arp=announce, created_ns=self.sim.now
        )
        self.nic.port.enqueue_control(packet)

    def die(self):
        """The server fails silently (used by the deadlock experiment)."""
        self.alive = False
        self.nic.die()

    def repair(self):
        """Server repair: reboot the NIC and re-announce."""
        self.alive = True
        self.nic.repair()
        self.boot()

    def _dispatch(self, packet):
        if packet.bth is not None:
            kind = "rocev2"
        elif packet.tcp is not None:
            kind = "tcp"
        elif packet.arp is not None:
            kind = "arp"
        elif packet.udp is not None:
            kind = "raw-udp"
        else:
            return
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(packet)

    def __repr__(self):
        return "Host(%s, ip=%d%s)" % (self.name, self.ip, "" if self.alive else ", DEAD")

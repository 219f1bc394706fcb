"""ARP request/reply packets.

ARP matters to the reproduction because the PFC deadlock of section 4.2 is
triggered by the *disparate timeouts* of the switch's ARP table (4 hours,
refreshed by ARP packets through the switch CPU) and MAC address table
(5 minutes, refreshed in hardware by received traffic).  When a server dies,
its MAC-table entry expires long before its ARP entry, producing an
"incomplete" entry whose packets are flooded.
"""

ARP_BYTES = 28

OP_REQUEST = 1
OP_REPLY = 2


class ArpPacket:
    """An Ethernet/IPv4 ARP packet."""

    __slots__ = ("op", "sender_mac", "sender_ip", "target_mac", "target_ip")

    def __init__(self, op, sender_mac, sender_ip, target_mac, target_ip):
        if op not in (OP_REQUEST, OP_REPLY):
            raise ValueError("ARP op must be request(1) or reply(2): %r" % (op,))
        self.op = op
        self.sender_mac = sender_mac
        self.sender_ip = sender_ip
        self.target_mac = target_mac
        self.target_ip = target_ip

    @classmethod
    def request(cls, sender_mac, sender_ip, target_ip):
        return cls(OP_REQUEST, sender_mac, sender_ip, 0, target_ip)

    @classmethod
    def reply(cls, sender_mac, sender_ip, target_mac, target_ip):
        return cls(OP_REPLY, sender_mac, sender_ip, target_mac, target_ip)

    @property
    def is_request(self):
        return self.op == OP_REQUEST

    @property
    def size_bytes(self):
        return ARP_BYTES

    def __repr__(self):
        kind = "request" if self.is_request else "reply"
        return "ArpPacket(%s, sender_ip=%d, target_ip=%d)" % (kind, self.sender_ip, self.target_ip)

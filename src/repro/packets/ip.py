"""IPv4 header with first-class DSCP and ECN fields.

DSCP (the six high bits of the old ToS byte) is the field the paper moves
packet priority into (figure 3b): unlike the VLAN PCP, it survives IP
routing across subnets and requires no trunk-mode ports.  ECN (the two low
bits) carries DCQCN's congestion signal.
"""

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17

IPV4_HEADER_BYTES = 20

# ECN codepoints (RFC 3168).
ECN_NOT_ECT = 0b00
ECN_ECT1 = 0b01
ECN_ECT0 = 0b10
ECN_CE = 0b11


def ip_to_str(addr):
    """Render a 32-bit integer IPv4 address dotted-quad."""
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def ip_from_str(text):
    """Parse a dotted-quad IPv4 address to a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError("malformed IPv4 address: %r" % (text,))
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError("malformed IPv4 address: %r" % (text,))
        value = (value << 8) | octet
    return value


class Ipv4Header:
    """A 20-byte (no options) IPv4 header.

    ``identification`` matters here beyond its usual role: the livelock
    experiment in section 4.1 drops "any packet with the least significant
    byte of IP ID equals to 0xff", exploiting the NIC's sequential ID
    assignment to get a deterministic 1/256 drop rate.
    """

    __slots__ = (
        "dscp",
        "ecn",
        "total_length",
        "identification",
        "ttl",
        "protocol",
        "src",
        "dst",
    )

    def __init__(
        self,
        src,
        dst,
        protocol=IPPROTO_UDP,
        dscp=0,
        ecn=ECN_NOT_ECT,
        total_length=IPV4_HEADER_BYTES,
        identification=0,
        ttl=64,
    ):
        if not 0 <= dscp <= 63:
            raise ValueError("DSCP is 6 bits: %r" % (dscp,))
        if not 0 <= ecn <= 3:
            raise ValueError("ECN is 2 bits: %r" % (ecn,))
        if not 0 <= identification <= 0xFFFF:
            raise ValueError("IP ID is 16 bits: %r" % (identification,))
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.dscp = dscp
        self.ecn = ecn
        self.total_length = total_length
        self.identification = identification
        self.ttl = ttl

    @property
    def ect_capable(self):
        """True if the packet advertises ECN-capable transport."""
        return self.ecn in (ECN_ECT0, ECN_ECT1)

    def mark_ce(self):
        """Set the Congestion Experienced codepoint (switch-side marking)."""
        self.ecn = ECN_CE

    def __repr__(self):
        return "Ipv4Header(%s -> %s, proto=%d, dscp=%d, ecn=%d, id=0x%04x)" % (
            ip_to_str(self.src),
            ip_to_str(self.dst),
            self.protocol,
            self.dscp,
            self.ecn,
            self.identification,
        )

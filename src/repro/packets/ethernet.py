"""Ethernet II frames and the 802.1Q VLAN tag.

The VLAN tag layout (figure 3a of the paper) is the crux of the paper's
section 3: the tag couples the 3-bit PCP priority with the 12-bit VLAN ID,
and that coupling is what DSCP-based PFC removes.  The tag is therefore
modelled field by field.
"""

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_VLAN = 0x8100  # TPID; fixed by 802.1Q
ETHERTYPE_MAC_CONTROL = 0x8808  # PFC / global pause frames

ETH_HEADER_BYTES = 14
ETH_FCS_BYTES = 4
VLAN_TAG_BYTES = 4
# Preamble (7) + SFD (1) + minimum inter-packet gap (12): consumed on the
# wire but never buffered, so links account for it separately.
ETH_WIRE_OVERHEAD_BYTES = 20

BROADCAST_MAC = 0xFFFFFFFFFFFF

def mac_to_str(mac):
    """Render a 48-bit integer MAC as ``aa:bb:cc:dd:ee:ff``."""
    return ":".join("%02x" % ((mac >> shift) & 0xFF) for shift in range(40, -8, -8))


def mac_from_str(text):
    """Parse ``aa:bb:cc:dd:ee:ff`` into a 48-bit integer."""
    parts = text.split(":")
    if len(parts) != 6:
        raise ValueError("malformed MAC address: %r" % (text,))
    value = 0
    for part in parts:
        value = (value << 8) | int(part, 16)
    return value


class VlanTag:
    """An 802.1Q tag: TPID(16) | PCP(3) DEI(1) VID(12).

    ``pcp`` carries the packet priority in VLAN-based PFC; ``vid`` is the
    VLAN the packet belongs to.  The paper's observation is that only the
    PCP is needed for PFC, yet it cannot be carried without also carrying a
    VID and putting switch ports into trunk mode.
    """

    __slots__ = ("pcp", "dei", "vid")

    def __init__(self, pcp=0, dei=0, vid=0):
        if not 0 <= pcp <= 7:
            raise ValueError("PCP is 3 bits: %r" % (pcp,))
        if dei not in (0, 1):
            raise ValueError("DEI is 1 bit: %r" % (dei,))
        if not 0 <= vid <= 0xFFF:
            raise ValueError("VID is 12 bits: %r" % (vid,))
        self.pcp = pcp
        self.dei = dei
        self.vid = vid

    def __eq__(self, other):
        return (
            isinstance(other, VlanTag)
            and (self.pcp, self.dei, self.vid) == (other.pcp, other.dei, other.vid)
        )

    def __repr__(self):
        return "VlanTag(pcp=%d, dei=%d, vid=%d)" % (self.pcp, self.dei, self.vid)

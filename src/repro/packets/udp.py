"""UDP header.

RoCEv2 encapsulates the InfiniBand transport in UDP so that commodity
switches can apply standard five-tuple ECMP hashing (paper section 2).  The
destination port is always 4791; the *source* port is chosen per queue pair,
which is what spreads QPs across ECMP paths.
"""

import struct

UDP_HEADER_BYTES = 8


class UdpHeader:
    """An 8-byte UDP header (checksum carried but not enforced, as is
    common for RoCEv2 which has its own ICRC)."""

    __slots__ = ("src_port", "dst_port", "length", "checksum")

    def __init__(self, src_port, dst_port, length=UDP_HEADER_BYTES, checksum=0):
        if not 0 <= src_port <= 0xFFFF:
            raise ValueError("src_port out of range: %r" % (src_port,))
        if not 0 <= dst_port <= 0xFFFF:
            raise ValueError("dst_port out of range: %r" % (dst_port,))
        self.src_port = src_port
        self.dst_port = dst_port
        self.length = length
        self.checksum = checksum

    @property
    def size_bytes(self):
        return UDP_HEADER_BYTES

    def pack(self):
        return struct.pack("!HHHH", self.src_port, self.dst_port, self.length, self.checksum)

    @classmethod
    def unpack(cls, data):
        if len(data) < UDP_HEADER_BYTES:
            raise ValueError("UDP header too short: %d bytes" % len(data))
        src, dst, length, cksum = struct.unpack("!HHHH", data[:UDP_HEADER_BYTES])
        return cls(src_port=src, dst_port=dst, length=length, checksum=cksum)

    def __repr__(self):
        return "UdpHeader(%d -> %d, len=%d)" % (self.src_port, self.dst_port, self.length)

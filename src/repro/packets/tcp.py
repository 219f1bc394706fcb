"""A minimal TCP header model for the baseline transport.

The paper's figure 6 compares RDMA against the production TCP stack.  The
reproduction's TCP baseline (:mod:`repro.tcp`) needs sequence/ack numbers,
the SYN/FIN/ACK flags and the ECE/CWR ECN bits; nothing more exotic.
"""

TCP_HEADER_BYTES = 20

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_ECE = 0x40
FLAG_CWR = 0x80


class TcpHeader:
    """A 20-byte (no options) TCP header."""

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window")

    def __init__(self, src_port, dst_port, seq=0, ack=0, flags=FLAG_ACK, window=0xFFFF):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq & 0xFFFFFFFF
        self.ack = ack & 0xFFFFFFFF
        self.flags = flags
        self.window = window

    def __repr__(self):
        names = []
        for flag, name in (
            (FLAG_SYN, "SYN"),
            (FLAG_FIN, "FIN"),
            (FLAG_RST, "RST"),
            (FLAG_ACK, "ACK"),
            (FLAG_ECE, "ECE"),
            (FLAG_CWR, "CWR"),
        ):
            if self.flags & flag:
                names.append(name)
        return "TcpHeader(%d -> %d, seq=%d, ack=%d, %s)" % (
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            "|".join(names) or "none",
        )

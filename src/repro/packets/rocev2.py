"""RoCEv2 transport headers: BTH, AETH and the DCQCN CNP.

RoCEv2 carries the InfiniBand Base Transport Header (BTH) inside
Ethernet/IPv4/UDP (paper section 2, figure 3).  The fields the reproduction
relies on:

* ``opcode``     -- distinguishes SEND/WRITE/READ segments, ACK, CNP.
* ``dest_qp``    -- 24-bit destination queue pair number.
* ``psn``        -- 24-bit packet sequence number; NAKs name the PSN to
  resume from, which is where go-back-0 vs go-back-N differ.

The AETH (ACK extended transport header) carries the ACK/NAK syndrome.
"""

import enum
import struct

ROCEV2_UDP_PORT = 4791

BTH_BYTES = 12
AETH_BYTES = 4
ICRC_BYTES = 4  # invariant CRC appended to every RoCEv2 packet

PSN_MASK = (1 << 24) - 1
QPN_MASK = (1 << 24) - 1


class BthOpcode(enum.IntEnum):
    """The subset of IB opcodes the reproduction uses (RC transport)."""

    SEND_FIRST = 0x00
    SEND_MIDDLE = 0x01
    SEND_LAST = 0x02
    SEND_ONLY = 0x04
    RDMA_WRITE_FIRST = 0x06
    RDMA_WRITE_MIDDLE = 0x07
    RDMA_WRITE_LAST = 0x08
    RDMA_WRITE_ONLY = 0x0A
    RDMA_READ_REQUEST = 0x0C
    RDMA_READ_RESPONSE_FIRST = 0x0D
    RDMA_READ_RESPONSE_MIDDLE = 0x0E
    RDMA_READ_RESPONSE_LAST = 0x0F
    RDMA_READ_RESPONSE_ONLY = 0x10
    ACKNOWLEDGE = 0x11
    CNP = 0x81  # DCQCN congestion notification packet

    @property
    def is_data(self):
        """True for opcodes that carry (or solicit) message payload."""
        return self not in (BthOpcode.ACKNOWLEDGE, BthOpcode.CNP)

    @property
    def is_read_response(self):
        return self in (
            BthOpcode.RDMA_READ_RESPONSE_FIRST,
            BthOpcode.RDMA_READ_RESPONSE_MIDDLE,
            BthOpcode.RDMA_READ_RESPONSE_LAST,
            BthOpcode.RDMA_READ_RESPONSE_ONLY,
        )

    @property
    def is_last_segment(self):
        """True when the opcode closes a message."""
        return self in (
            BthOpcode.SEND_LAST,
            BthOpcode.SEND_ONLY,
            BthOpcode.RDMA_WRITE_LAST,
            BthOpcode.RDMA_WRITE_ONLY,
            BthOpcode.RDMA_READ_RESPONSE_LAST,
            BthOpcode.RDMA_READ_RESPONSE_ONLY,
        )


class BaseTransportHeader:
    """A 12-byte IB BTH."""

    __slots__ = ("opcode", "solicited", "pad_count", "pkey", "dest_qp", "ack_req", "psn")

    def __init__(self, opcode, dest_qp, psn, ack_req=False, solicited=False, pad_count=0, pkey=0xFFFF):
        if not 0 <= dest_qp <= QPN_MASK:
            raise ValueError("QPN is 24 bits: %r" % (dest_qp,))
        if not 0 <= psn <= PSN_MASK:
            raise ValueError("PSN is 24 bits: %r" % (psn,))
        # A member (what every sender passes) needs no enum lookup; a
        # raw int is still validated by BthOpcode().
        self.opcode = opcode if type(opcode) is BthOpcode else BthOpcode(opcode)
        self.dest_qp = dest_qp
        self.psn = psn
        self.ack_req = bool(ack_req)
        self.solicited = bool(solicited)
        self.pad_count = pad_count
        self.pkey = pkey

    @property
    def size_bytes(self):
        return BTH_BYTES

    def pack(self):
        flags = (int(self.solicited) << 7) | ((self.pad_count & 0b11) << 4)
        word2 = self.dest_qp  # high byte reserved
        word3 = (int(self.ack_req) << 31) | self.psn
        return struct.pack("!BBHII", int(self.opcode), flags, self.pkey, word2, word3)

    @classmethod
    def unpack(cls, data):
        if len(data) < BTH_BYTES:
            raise ValueError("BTH too short: %d bytes" % len(data))
        opcode, flags, pkey, word2, word3 = struct.unpack("!BBHII", data[:BTH_BYTES])
        return cls(
            opcode=opcode,
            dest_qp=word2 & QPN_MASK,
            psn=word3 & PSN_MASK,
            ack_req=bool(word3 >> 31),
            solicited=bool(flags >> 7),
            pad_count=(flags >> 4) & 0b11,
            pkey=pkey,
        )

    def __repr__(self):
        return "BTH(%s, qp=%d, psn=%d%s)" % (
            self.opcode.name,
            self.dest_qp,
            self.psn,
            ", ack_req" if self.ack_req else "",
        )


class AethSyndrome(enum.IntEnum):
    """ACK/NAK syndrome classes carried in the AETH high bits."""

    ACK = 0b000
    RNR_NAK = 0b001
    NAK = 0b011  # PSN sequence error: triggers the sender's recovery policy


class Aeth:
    """A 4-byte AETH: syndrome (8 bits) + MSN (24 bits)."""

    __slots__ = ("syndrome", "msn")

    def __init__(self, syndrome, msn=0):
        self.syndrome = AethSyndrome(syndrome)
        self.msn = msn & PSN_MASK

    @property
    def size_bytes(self):
        return AETH_BYTES

    @property
    def is_nak(self):
        return self.syndrome == AethSyndrome.NAK

    def pack(self):
        return struct.pack("!I", (int(self.syndrome) << 29) | self.msn)

    @classmethod
    def unpack(cls, data):
        (word,) = struct.unpack("!I", data[:AETH_BYTES])
        return cls(syndrome=word >> 29, msn=word & PSN_MASK)

    def __repr__(self):
        return "Aeth(%s, msn=%d)" % (self.syndrome.name, self.msn)


def psn_add(psn, delta):
    """24-bit wrapping PSN arithmetic."""
    return (psn + delta) & PSN_MASK


def psn_distance(newer, older):
    """Forward distance from ``older`` to ``newer`` in 24-bit PSN space."""
    return (newer - older) & PSN_MASK

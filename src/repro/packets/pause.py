"""PFC pause frames (IEEE 802.1Qbb) and the legacy 802.3x global pause.

A PFC pause frame is a MAC control frame (ethertype 0x8808, opcode 0x0101)
carrying a class-enable vector naming which of the eight priorities to
pause, and one 16-bit pause duration per priority measured in *quanta* of
512 bit-times.  A pause with zero quanta is the XON/resume signal.

As the paper stresses (figure 3), the pause frame itself is **untagged** --
it has no VLAN tag and no IP header -- which is exactly why priority can be
moved from the VLAN tag to DSCP without touching PFC itself.
"""

from repro.sim.units import SEC

PFC_PAUSE_OPCODE = 0x0101
GLOBAL_PAUSE_OPCODE = 0x0001

# A pause quantum is 512 bit-times at the port speed (802.1Qbb).
PAUSE_QUANTUM_BITS = 512
MAX_QUANTA = 0xFFFF

N_PRIORITIES = 8

# Control frame body: opcode(2) + class-enable vector(2) + 8 * quanta(2),
# padded to the 46-byte Ethernet minimum payload.
PFC_BODY_BYTES = 2 + 2 + 2 * N_PRIORITIES
PFC_PAD_BYTES = 46 - PFC_BODY_BYTES


def pause_quanta_to_ns(quanta, link_rate_bps):
    """Duration (ns) that ``quanta`` pause quanta represent at a link rate."""
    bits = quanta * PAUSE_QUANTUM_BITS
    return bits * SEC // link_rate_bps


def ns_to_pause_quanta(duration_ns, link_rate_bps):
    """Quanta (clamped to 16 bits) covering ``duration_ns`` at a link rate."""
    bits = duration_ns * link_rate_bps // SEC
    quanta = -(-bits // PAUSE_QUANTUM_BITS)
    return min(int(quanta), MAX_QUANTA)


class PfcPauseFrame:
    """The body of a per-priority pause frame.

    ``quanta`` is a mapping (or 8-list) of priority -> pause duration in
    quanta.  Priorities listed with zero quanta are *resumed* (XON);
    priorities absent from the class-enable vector are untouched.
    """

    __slots__ = ("quanta",)

    def __init__(self, quanta):
        if isinstance(quanta, dict):
            table = [None] * N_PRIORITIES
            for priority, value in quanta.items():
                if not 0 <= priority < N_PRIORITIES:
                    raise ValueError("priority out of range: %r" % (priority,))
                table[priority] = int(value)
        else:
            table = [None if q is None else int(q) for q in quanta]
            if len(table) != N_PRIORITIES:
                raise ValueError("need exactly %d per-priority entries" % N_PRIORITIES)
        for value in table:
            if value is not None and not 0 <= value <= MAX_QUANTA:
                raise ValueError("quanta is 16 bits: %r" % (value,))
        self.quanta = table

    @classmethod
    def pause(cls, priorities, quanta=MAX_QUANTA):
        """A frame pausing ``priorities`` for ``quanta`` quanta each."""
        return cls({priority: quanta for priority in priorities})

    @classmethod
    def resume(cls, priorities):
        """A zero-duration frame resuming ``priorities`` (XON)."""
        return cls({priority: 0 for priority in priorities})

    @property
    def paused_priorities(self):
        """Priorities this frame pauses (non-zero quanta)."""
        return [p for p, q in enumerate(self.quanta) if q]

    @property
    def resumed_priorities(self):
        """Priorities this frame resumes (zero quanta)."""
        return [p for p, q in enumerate(self.quanta) if q == 0]

    @property
    def size_bytes(self):
        return PFC_BODY_BYTES + PFC_PAD_BYTES

    def __repr__(self):
        parts = []
        for priority, value in enumerate(self.quanta):
            if value is None:
                continue
            parts.append("%d:%s" % (priority, "XON" if value == 0 else value))
        return "PfcPauseFrame(%s)" % ", ".join(parts)

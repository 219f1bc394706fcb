"""Deterministic five-tuple ECMP hashing.

RoCEv2's UDP encapsulation exists precisely so that "the intermediate
switches use standard five-tuple hashing" (section 2): each queue pair
picks a random UDP source port, so different QPs -- even between the same
pair of hosts -- ride different paths, while one QP stays on one path
(in-order delivery).

The hash must be deterministic per switch yet different *between*
switches (real ASICs mix in a per-device seed); otherwise a 3-tier Clos
would polarize, with every switch making the same choice.
"""

import struct
import zlib


def ecmp_seed(name):
    """The per-device seed of switch ``name``: the one seeding rule.

    A pure function of the name, so a path is the same in every process
    (the builtin ``hash()`` varies with ``PYTHONHASHSEED``) and in every
    tier: the packet switch, the flow-level path walk and the figure 7
    model all hash with this seed.
    """
    return zlib.crc32(name.encode())


def ecmp_hash(five_tuple, seed=0):
    """A stable 32-bit hash of ``(src, dst, proto, sport, dport)``."""
    src, dst, proto, sport, dport = five_tuple
    packed = struct.pack("!IIBHH", src & 0xFFFFFFFF, dst & 0xFFFFFFFF, proto & 0xFF, sport, dport)
    return zlib.crc32(packed, seed & 0xFFFFFFFF)


def ecmp_select(five_tuple, n_choices, seed=0):
    """Pick one of ``n_choices`` next hops for a flow."""
    if n_choices <= 0:
        raise ValueError("no next hops to choose from")
    if n_choices == 1:
        return 0
    return ecmp_hash(five_tuple, seed) % n_choices

"""Full-duplex point-to-point links.

A link joins exactly two ports.  Each direction models:

* **serialization** -- ``wire_bytes`` (frame + preamble + IPG) clocked at
  the line rate; the sending port stays busy for this long;
* **propagation** -- a fixed delay derived from cable length.  The paper's
  PFC headroom analysis (section 2) hinges on this: a pause frame takes a
  propagation delay to arrive, during which the upstream keeps
  transmitting.
* **loss injection** -- an optional random loss probability models FCS
  errors and switch bugs ("packet losses can still happen for various
  other reasons", section 4.1).  Loss never applies to pause frames,
  mirroring the far smaller exposure of 64-byte control frames.
"""

from functools import partial

from repro.sim.units import propagation_delay_ns, serialization_delay_ns
from repro.obs import TRACE as _TRACE


class Link:
    """Connects ``port_a`` and ``port_b`` bidirectionally."""

    # rate_bps -> {wire_bytes -> serialization ns}, shared across every
    # link of the same speed: a Clos fabric has hundreds of identical
    # links carrying the same handful of frame sizes, so deriving the
    # ceiling division per link wasted both time and memory.
    _SER_CACHES = {}

    def __init__(
        self,
        sim,
        port_a,
        port_b,
        rate_bps,
        delay_ns=None,
        cable_meters=2,
        loss_rate=0.0,
        loss_rng=None,
        name=None,
    ):
        if port_a.link is not None or port_b.link is not None:
            raise RuntimeError("port already connected")
        if loss_rate and loss_rng is None:
            raise ValueError("loss_rate requires a loss_rng stream")
        self.sim = sim
        self.rate_bps = int(rate_bps)
        self.delay_ns = propagation_delay_ns(cable_meters) if delay_ns is None else int(delay_ns)
        self.loss_rate = loss_rate
        self._loss_rng = loss_rng
        self.name = name or "%s<->%s" % (port_a.name, port_b.name)
        self.port_a = port_a
        self.port_b = port_b
        port_a.link = self
        port_b.link = self
        port_a.peer = port_b
        port_b.peer = port_a
        # A frame's arrival event calls the far device's handle_packet
        # with the far port directly: bound once here, so delivery costs
        # no Python frame of its own.
        port_a.peer_deliver = partial(port_b.device.handle_packet, port_b)
        port_b.peer_deliver = partial(port_a.device.handle_packet, port_a)
        self.up = True
        # wire_bytes -> serialization ns, shared per line rate.
        self._ser_ns = Link._SER_CACHES.setdefault(self.rate_bps, {})
        # Optional fault-injection hook: ``fn(link, packet)`` returning
        # None (deliver normally), ``("drop", None)``, ``("corrupt", None)``
        # or ``("delay", extra_ns)``.  Installed by repro.faults; the link
        # itself stays policy-free.
        self.fault_hook = None
        # Counters.
        self.delivered = 0
        self.lost = 0
        self.injected_drops = 0
        self.corrupted = 0
        self.reordered = 0
        self.flaps = 0

    def ser_ns(self, wire_bytes):
        """Serialization delay for ``wire_bytes`` at this line rate
        (cached per rate)."""
        serialization_ns = self._ser_ns.get(wire_bytes)
        if serialization_ns is None:
            serialization_ns = serialization_delay_ns(wire_bytes, self.rate_bps)
            self._ser_ns[wire_bytes] = serialization_ns
        return serialization_ns

    def other(self, port):
        """The port at the far end from ``port``."""
        if port is self.port_a:
            return self.port_b
        if port is self.port_b:
            return self.port_a
        raise ValueError("port %s is not on link %s" % (port.name, self.name))

    def transmit(self, from_port, packet):
        """Start clocking ``packet`` out of ``from_port``.

        Returns the serialization delay (ns); the caller keeps the port
        busy for that long.  Delivery at the far end is scheduled for
        serialization + propagation later (cut-through is not modelled;
        the paper's switches are store-and-forward shared-buffer parts).
        """
        wire_bytes = packet.wire_bytes
        serialization_ns = self._ser_ns.get(wire_bytes)
        if serialization_ns is None:
            serialization_ns = serialization_delay_ns(wire_bytes, self.rate_bps)
            self._ser_ns[wire_bytes] = serialization_ns
        if _TRACE.enabled:
            _TRACE.session.on_wire(self, from_port, packet, serialization_ns)
        if not self.up:
            self.lost += 1
            return serialization_ns
        if (
            self.loss_rate
            and not packet.is_pause
            and self._loss_rng.random() < self.loss_rate
        ):
            self.lost += 1
            return serialization_ns
        extra_delay_ns = 0
        if self.fault_hook is not None:
            verdict = self.fault_hook(self, packet)
            if verdict is not None:
                kind, arg = verdict
                if kind == "drop":
                    self.lost += 1
                    self.injected_drops += 1
                    return serialization_ns
                if kind == "corrupt":
                    # The frame clocks out and arrives mangled: the far
                    # end's FCS/ICRC check discards it, so corruption is
                    # non-delivery that still consumed wire time.
                    self.lost += 1
                    self.corrupted += 1
                    return serialization_ns
                if kind == "delay":
                    # Held in a (modelled) faulty buffer stage: arrives
                    # late, potentially behind packets sent after it.
                    self.reordered += 1
                    extra_delay_ns = int(arg)
                else:
                    raise ValueError("unknown fault verdict: %r" % (verdict,))
        # from_port.peer_deliver was wired by __init__: the far device's
        # handle_packet, bound to the far port.
        self.sim.schedule1(
            serialization_ns + self.delay_ns + extra_delay_ns,
            from_port.peer_deliver,
            packet,
        )
        self.delivered += 1
        return serialization_ns

    def set_down(self):
        """Take the link down: frames in flight still arrive; new frames
        are black-holed."""
        if self.up:
            self.flaps += 1
        self.up = False

    def set_up(self):
        self.up = True

    def __repr__(self):
        return "Link(%s, %d b/s, %dns%s)" % (
            self.name,
            self.rate_bps,
            self.delay_ns,
            "" if self.up else ", DOWN",
        )


def connect(sim, device_a, device_b, rate_bps, **kwargs):
    """Convenience: allocate a fresh port on each device and link them.

    Returns ``(port_a, port_b, link)``.
    """
    port_a = device_a.add_port()
    port_b = device_b.add_port()
    link = Link(sim, port_a, port_b, rate_bps, **kwargs)
    return port_a, port_b, link

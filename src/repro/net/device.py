"""Base class for network devices (switches and NICs)."""

from repro.net.port import Port


class Device:
    """Anything that owns ports and handles delivered frames."""

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.ports = []

    def add_port(self, **kwargs):
        """Allocate the next port on this device."""
        port = Port(self.sim, self, len(self.ports), **kwargs)
        port.on_dequeue = self._on_port_dequeue
        self.ports.append(port)
        return port

    def handle_packet(self, port, packet):
        """Called when the link delivers a frame to ``port``."""
        raise NotImplementedError

    def _on_port_dequeue(self, packet, meta, dropped_at_head):
        """Called by a port whenever an entry leaves its queues.  Devices
        with shared-buffer accounting override this."""

    def __repr__(self):
        return "%s(%s, %d ports)" % (type(self).__name__, self.name, len(self.ports))

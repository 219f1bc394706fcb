"""Per-host RDMA transport engine.

Owns the host's queue pairs, dispatches incoming RoCEv2 packets to them
and exposes aggregate statistics (application goodput, NAK counts) that
the experiments read.
"""


class RdmaEngine:
    """The RDMA transport instance on one host."""

    def __init__(self, host, qpn_base=None):
        self.host = host
        self.sim = host.sim
        self._qps = {}
        # QPNs only need to be unique per host (the wire carries the
        # destination QPN); offsetting by IP keeps debug output readable.
        self._next_qpn = (host.ip & 0xFF) << 12 if qpn_base is None else qpn_base
        self.unknown_qp_drops = 0
        host.install_handler("rocev2", self._on_packet)

    def create_qp(self, config, src_udp_port):
        """Allocate a queue pair (use verbs.connect_qp_pair to wire two)."""
        from repro.rdma.qp import QueuePair

        qpn = self._next_qpn
        self._next_qpn += 1
        qp = QueuePair(self, qpn, config, src_udp_port)
        self._qps[qpn] = qp
        self.host.nic.register_source(qp)
        return qp

    def destroy_qp(self, qp):
        self._qps.pop(qp.qpn, None)
        self.host.nic.unregister_source(qp)

    def qp(self, qpn):
        return self._qps.get(qpn)

    @property
    def qps(self):
        return list(self._qps.values())

    def _on_packet(self, packet):
        qp = self._qps.get(packet.bth.dest_qp)
        if qp is None:
            self.unknown_qp_drops += 1
            return
        qp.on_network_packet(packet)

    # -- aggregate statistics ---------------------------------------------------

    def total_naks(self):
        return sum(qp.stats.naks_received for qp in self._qps.values())

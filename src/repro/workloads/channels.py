"""Transport-neutral send channels.

Workloads call ``channel.send(nbytes, on_delivered)`` where
``on_delivered(latency_ns)`` fires when the data has fully reached the
peer application; what "reached" means per transport:

* RDMA: the sender's work completion (requires the responder's ACK, so
  the wire was crossed both ways);
* TCP: the receiving application got the last byte out of its kernel.

Neither transport is imported here: a channel is handed a live QP or
connection, so the flow tier can read ``repro.workloads``' size
distributions without loading the RDMA stack.
"""


class RdmaChannel:
    """Adapter over a queue pair."""

    def __init__(self, qp):
        self.qp = qp
        self.sent_messages = 0

    def send(self, nbytes, on_delivered=None):
        from repro.rdma.verbs import post_send

        posted = self.qp.sim.now
        self.sent_messages += 1

        def complete(wr, completed_ns):
            if on_delivered is not None:
                on_delivered(completed_ns - posted)

        post_send(self.qp, nbytes, on_complete=complete)

    @property
    def name(self):
        return "rdma-qp%d" % self.qp.qpn


class TcpChannel:
    """Adapter over a TCP connection."""

    def __init__(self, connection):
        self.connection = connection
        self.sent_messages = 0

    def send(self, nbytes, on_delivered=None):
        self.sent_messages += 1
        self.connection.send_message(nbytes, on_delivered=on_delivered)

    @property
    def name(self):
        return "tcp:%d" % self.connection.local_port

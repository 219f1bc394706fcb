"""E1 -- the RDMA transport livelock (paper section 4.1).

Two servers A and B through one switch W.  W drops every packet whose
IP ID ends in 0xff (the NIC assigns IP IDs sequentially, so this is a
deterministic 1/256 loss).  A sends 4 MB messages to B as fast as it can
with SEND / WRITE, and B READs 4 MB chunks from A.

Paper result: with the vendor's go-back-0 recovery, application goodput
is **zero** while the link runs at full rate; go-back-N restores goodput.
"""

from repro.rdma.qp import QpConfig
from repro.rdma.recovery import GoBack0, GoBackN
from repro.rdma.verbs import connect_qp_pair, post_read
from repro.sim import SeededRng
from repro.sim.units import MB, MS, US
from repro.topo import single_switch
from repro.workloads import ClosedLoopSender, RdmaChannel
from repro.experiments.common import ExperimentResult, run_under_audit


class LivelockResult(ExperimentResult):
    title = "E1: RDMA transport livelock (section 4.1)"


def _drop_ip_id_ff(packet):
    return packet.ip is not None and packet.ip.identification & 0xFF == 0xFF


def _run_one(operation, recovery, message_bytes, duration_ns, seed):
    topo = single_switch(n_hosts=2, seed=seed).boot()
    topo.tor.ingress_drop_filter = _drop_ip_id_ff
    # Even a livelocked run must keep every invariant: buffers balance,
    # pauses resolve, and the deliberate go-back-0 PSN rewinds are exempt.
    registry = run_under_audit(topo.fabric)
    rng = SeededRng(seed, "livelock")
    config = QpConfig(recovery=recovery, rto_ns=200 * US)
    qp_a, qp_b = connect_qp_pair(
        topo.hosts[0], topo.hosts[1], rng, config_a=config, config_b=QpConfig(recovery=recovery)
    )
    sim = topo.sim
    start = sim.now
    if operation in ("send", "write"):
        channel = RdmaChannel(qp_a)
        if operation == "write":
            channel.send = _write_send(channel)
        sender = ClosedLoopSender(channel, message_bytes).start()
        counter = sender
    else:  # read: B reads 4 MB chunks from A "as fast as possible"
        counter = _ReadLoop(qp_b, message_bytes)
        counter.start()
    sim.run(until=start + duration_ns)
    elapsed = sim.now - start
    goodput_gbps = counter.completed_bytes * 8.0 / elapsed  # bits/ns == Gb/s
    wire_packets = qp_a.stats.data_packets_sent + qp_b.stats.data_packets_sent
    # Link "busy" check: data packets pushed vs what the 40G link could
    # carry in the window (1086-byte frames every ~221 ns).
    line_rate_packets = elapsed / 222
    return {
        "operation": operation,
        "recovery": recovery.name,
        "goodput_gbps": goodput_gbps,
        "messages_completed": counter.completed_messages,
        "link_utilization": min(1.0, wire_packets / line_rate_packets),
        "naks": qp_a.stats.naks_received + qp_b.stats.naks_received,
        "invariant_violations": registry.violation_count,
    }


def _write_send(channel):
    from repro.rdma.verbs import post_write

    def send(nbytes, on_delivered=None):
        posted = channel.qp.sim.now

        def complete(wr, t):
            if on_delivered is not None:
                on_delivered(t - posted)

        post_write(channel.qp, nbytes, on_complete=complete)

    return send


class _ReadLoop:
    """B reads chunks from A back to back."""

    def __init__(self, qp, chunk_bytes, pipeline_depth=2):
        self.qp = qp
        self.chunk_bytes = chunk_bytes
        self.pipeline_depth = pipeline_depth
        self.completed_messages = 0
        self.completed_bytes = 0

    def start(self):
        for _ in range(self.pipeline_depth):
            self._post()
        return self

    def _post(self):
        post_read(self.qp, self.chunk_bytes, on_complete=self._done)

    def _done(self, wr, t):
        self.completed_messages += 1
        self.completed_bytes += self.chunk_bytes
        self._post()


def run_livelock(
    message_bytes=4 * MB,
    duration_ns=30 * MS,
    operations=("send", "write", "read"),
    seed=1,
):
    """Reproduce the section 4.1 experiment for both recovery policies."""
    rows = []
    for operation in operations:
        for recovery in (GoBack0(), GoBackN()):
            rows.append(
                _run_one(operation, recovery, message_bytes, duration_ns, seed)
            )
    return LivelockResult(rows)


def claims(rows):
    """Section 4.1: go-back-0 gives zero goodput at full line rate for
    SEND, WRITE and READ; go-back-N restores throughput."""
    rows = {(r["operation"], r["recovery"]): r for r in rows}
    verdicts = []
    for operation in ("send", "write", "read"):
        gb0 = rows[(operation, "go-back-0")]
        gbn = rows[(operation, "go-back-n")]
        verdicts += [
            # Livelock: zero goodput, busy link.
            ("%s: go-back-0 goodput is zero" % operation, gb0["goodput_gbps"] == 0.0),
            ("%s: go-back-0 keeps the link busy" % operation, gb0["link_utilization"] > 0.9),
            # The fix: substantial goodput despite the same drops.
            ("%s: go-back-n goodput > 20 Gb/s" % operation, gbn["goodput_gbps"] > 20),
            ("%s: go-back-n recovers by NAK" % operation, gbn["naks"] > 0),
        ]
    return verdicts

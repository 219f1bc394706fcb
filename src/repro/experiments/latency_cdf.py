"""E4 -- RDMA vs TCP latency for a latency-sensitive service (paper
section 5.4, figure 6).

The measured service: ~350 Mb/s per server of bursty, many-to-one incast
traffic; the fabric itself is not the bottleneck.  RDMA and TCP each
carry half the traffic in their own classes.  Latency is measured by
Pingmesh probes riding the same classes.

Paper result: p99 latency 90 us (RDMA) vs 700 us (TCP), TCP spiking to
milliseconds; even RDMA's p99.9 (~200 us) beats TCP's p99.  The
mechanisms are kernel-stack overhead plus "occasional incast packet
drops" for TCP, both of which RDMA eliminates (PFC prevents the drops).
"""

from repro.analysis.percentiles import percentile
from repro.monitoring.pingmesh import Pingmesh
from repro.rdma.qp import QpConfig, TrafficClass
from repro.rdma.verbs import connect_qp_pair
from repro.sim import SeededRng
from repro.sim.units import KB, MS, US
from repro.tcp import connect_tcp_pair
from repro.topo import single_switch
from repro.workloads import PeriodicIncast, RdmaChannel, TcpChannel
from repro.experiments.common import apply_ets_weights
from repro.experiments.result import ExperimentResult


class LatencyVsTcpResult(ExperimentResult):
    title = "E4: RDMA vs TCP latency, figure 6 (section 5.4)"


class _TcpEchoProbe:
    """TCP Pingmesh equivalent: 512-byte echo, RTT at the client."""

    def __init__(self, sim, conn_client, conn_server):
        self.sim = sim
        self.conn_client = conn_client
        self.conn_server = conn_server
        self.rtts_ns = []
        self._sent_at = None

    def launch(self):
        if self._sent_at is not None:
            return  # previous probe still pending
        self._sent_at = self.sim.now
        self.conn_client.send_message(512, on_delivered=self._at_server)

    def _at_server(self, _latency):
        self.conn_server.send_message(512, on_delivered=self._back)

    def _back(self, _latency):
        self.rtts_ns.append(self.sim.now - self._sent_at)
        self._sent_at = None


def run_latency_vs_tcp(
    n_hosts=8,
    duration_ns=400 * MS,
    burst_bytes=48 * KB,
    incast_fanin=4,
    incast_period_ns=2 * MS,
    probe_interval_ns=1 * MS,
    seed=1,
):
    """Reproduce figure 6's percentile comparison."""
    from repro.switch.buffer import BufferConfig

    topo = single_switch(
        n_hosts=n_hosts,
        seed=seed,
        # Shallow thresholds: the lossy (TCP) class overflows its egress
        # queue under synchronized incast bursts; the lossless class
        # gets PFC instead -- the figure 6 mechanism.
        buffer_config=BufferConfig(
            alpha=None, xoff_static_bytes=96 * KB, lossy_egress_cap_bytes=80 * KB
        ),
    ).boot()
    sim, fabric = topo.sim, topo.fabric
    rng = SeededRng(seed, "latency-cdf")
    apply_ets_weights(fabric, {3: 4, 1: 4, 0: 1})
    hosts = topo.hosts

    # Background service traffic: many-to-one incast on both transports,
    # half the load each (as in the measured data center).  An incast
    # group's responses are *synchronized* (that is what incast means);
    # different victims burst at independent phases.
    rdma_incasts = []
    tcp_incasts = []
    tcp_channels = []
    for victim_idx in range(n_hosts):
        victim = hosts[victim_idx]
        sources = [hosts[(victim_idx + k + 1) % n_hosts] for k in range(incast_fanin)]
        rdma_channels = []
        victim_tcp_channels = []
        for src in sources:
            qp, _ = connect_qp_pair(
                src, victim, rng,
                config_a=QpConfig(traffic_class=TrafficClass(dscp=3, priority=3)),
                config_b=QpConfig(traffic_class=TrafficClass(dscp=3, priority=3)),
            )
            rdma_channels.append(RdmaChannel(qp))
            conn_src, _conn_dst = connect_tcp_pair(src, victim, rng)
            victim_tcp_channels.append(TcpChannel(conn_src))
        tcp_channels.extend(victim_tcp_channels)
        rdma_incasts.append(
            PeriodicIncast(
                sim, rdma_channels, burst_bytes, incast_period_ns,
                rng=rng.child("jit-r%d" % victim_idx), jitter_ns=30 * US,
            ).start(initial_delay_ns=int(rng.uniform(0, incast_period_ns)))
        )
        tcp_incasts.append(
            PeriodicIncast(
                sim, victim_tcp_channels, burst_bytes, incast_period_ns,
                rng=rng.child("jit-t%d" % victim_idx), jitter_ns=30 * US,
            ).start(initial_delay_ns=int(rng.uniform(0, incast_period_ns)))
        )

    # Probes: RDMA Pingmesh + TCP echo between distinct host pairs.
    pingmesh = Pingmesh(
        sim, rng.child("pm"), interval_ns=probe_interval_ns,
        traffic_class=TrafficClass(dscp=3, priority=3),
    )
    tcp_probes = []
    for i in range(0, n_hosts - 1, 2):
        pingmesh.add_pair(hosts[i], hosts[i + 1])
        conn_a, conn_b = connect_tcp_pair(hosts[i], hosts[i + 1], rng)
        tcp_probes.append(_TcpEchoProbe(sim, conn_a, conn_b))
    pingmesh.start()

    probe_rng = rng.child("tcp-probe")

    def tcp_probe_tick():
        for probe in tcp_probes:
            probe.launch()
        jitter = int(probe_rng.uniform(0, probe_interval_ns * 0.8))
        sim.schedule(probe_interval_ns // 2 + jitter, tcp_probe_tick)

    tcp_probe_tick()
    sim.run(until=sim.now + duration_ns)
    pingmesh.stop()
    for incast in rdma_incasts + tcp_incasts:
        incast.stop()

    rdma_rtts = pingmesh.rtts_ns()
    tcp_rtts = [r for probe in tcp_probes for r in probe.rtts_ns]
    rows = []
    for name, rtts, extra in (
        ("rdma", rdma_rtts, {"drops": 0}),
        ("tcp", tcp_rtts, {}),
    ):
        row = {
            "transport": name,
            "probes": len(rtts),
            "p50_us": percentile(rtts, 50) / US,
            "p99_us": percentile(rtts, 99) / US,
            "p99.9_us": percentile(rtts, 99.9) / US,
            "max_us": max(rtts) / US,
        }
        rows.append(row)
    rows[0]["switch_drops_in_class"] = _drops_for_priority(topo.tor, lossless=True)
    rows[1]["switch_drops_in_class"] = (
        topo.tor.counters.drops["buffer-lossy"]
        + topo.tor.counters.drops["egress-lossy"]
    )
    rows.append(
        {
            "transport": "tcp-recovery",
            "probes": sum(
                c.connection.stats.rtos + c.connection.stats.fast_retransmits
                for c in tcp_channels
            ),
            "p50_us": None,
            "p99_us": None,
            "p99.9_us": None,
            "max_us": None,
            "switch_drops_in_class": None,
        }
    )
    return LatencyVsTcpResult(rows)


def _drops_for_priority(switch, lossless):
    """Headroom-overflow drops (must be zero -- RDMA loses nothing)."""
    return switch.counters.drops["buffer-headroom-overflow"]


def claims(rows):
    """Figure 6: RDMA p99 far below TCP's; TCP spikes to milliseconds;
    even RDMA's p99.9 beats TCP's p99."""
    rows = {r["transport"]: r for r in rows}
    rdma = rows["rdma"]
    tcp = rows["tcp"]
    return [
        # RDMA's tail beats TCP's tail by a wide margin...
        ("rdma p99 x 3 < tcp p99", rdma["p99_us"] * 3 < tcp["p99_us"]),
        # ... and even RDMA's p99.9 beats TCP's p99 (the paper's headline).
        ("rdma p99.9 < tcp p99", rdma["p99.9_us"] < tcp["p99_us"]),
        # TCP spikes to milliseconds; RDMA never leaves the microsecond band.
        ("tcp max > 1 ms", tcp["max_us"] > 1000),
        ("rdma max < 200 us", rdma["max_us"] < 200),
        # Zero losses in the lossless class, real losses in the lossy one.
        ("rdma class drops nothing", rdma["switch_drops_in_class"] == 0),
        ("tcp class drops", tcp["switch_drops_in_class"] > 0),
    ]

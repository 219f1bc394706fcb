"""E6 -- RDMA latency under congestion (paper section 5.4, figure 8).

The two-tier testbed: 2 ToRs x 24 servers, 4 uplinks each (6:1
oversubscription).  20 server pairs across the ToRs, 8 QPs per pair,
all saturating.  Paper: once the load starts, Pingmesh RDMA latency
jumps from 50 us (p99) / 80 us (p99.9) to 400 us / 800 us -- lossless
does not mean low latency; queues and pauses build.  The TCP class's
p99 is *unchanged* because RDMA and TCP ride different queues.

Scaled run: same structure at reduced port counts; DCQCN + ECN active
as deployed.
"""

from repro.analysis.percentiles import percentile
from repro.dcqcn import DcqcnConfig
from repro.monitoring.pingmesh import Pingmesh
from repro.rdma.qp import QpConfig, TrafficClass
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS, US
from repro.switch.ecn import EcnConfig
from repro.tcp import connect_tcp_pair
from repro.topo import two_tier
from repro.experiments.common import apply_ets_weights, saturate_pairs
from repro.experiments.result import ExperimentResult
from repro.experiments.latency_cdf import _TcpEchoProbe


class CongestionLatencyResult(ExperimentResult):
    title = "E6: RDMA latency vs load, figure 8 (section 5.4)"


def run_congestion_latency(
    hosts_per_tor=6,
    n_leaves=2,
    saturating_pairs=4,
    qps_per_pair=2,
    phase_ns=60 * MS,
    probe_interval_ns=int(0.5 * MS),
    seed=1,
):
    """Reproduce figure 8's before/after jump."""
    topo = two_tier(
        n_tors=2,
        hosts_per_tor=hosts_per_tor,
        n_leaves=n_leaves,
        seed=seed,
        ecn_config=EcnConfig(kmin_bytes=40 * KB, kmax_bytes=160 * KB, pmax=0.1, enabled=True),
    ).boot()
    sim, fabric = topo.sim, topo.fabric
    rng = SeededRng(seed, "fig8")
    apply_ets_weights(fabric, {3: 4, 1: 2, 0: 1})
    t0_hosts, t1_hosts = topo.hosts_by_tor

    # Probes: one RDMA Pingmesh pair and one TCP echo pair, both crossing
    # the oversubscribed uplinks (the last host of each ToR).
    pingmesh = Pingmesh(
        sim, rng.child("pm"), interval_ns=probe_interval_ns,
        traffic_class=TrafficClass(dscp=3, priority=3),
    )
    pingmesh.add_pair(t0_hosts[-1], t1_hosts[-1])
    conn_a, conn_b = connect_tcp_pair(t0_hosts[-2], t1_hosts[-2], rng)
    tcp_probe = _TcpEchoProbe(sim, conn_a, conn_b)

    def tcp_tick():
        tcp_probe.launch()
        sim.schedule(probe_interval_ns, tcp_tick)

    pingmesh.start()
    tcp_tick()

    # Phase 1: idle fabric.
    sim.run(until=sim.now + phase_ns)
    idle_rdma = list(pingmesh.rtts_ns())
    idle_tcp = list(tcp_probe.rtts_ns)

    # Phase 2: the saturating cross-ToR load, DCQCN-controlled.
    pairs = []
    for i in range(saturating_pairs):
        for _ in range(qps_per_pair):
            pairs.append((t0_hosts[i], t1_hosts[i]))
            pairs.append((t1_hosts[i], t0_hosts[i]))
    saturate_pairs(sim, pairs, 1 * MB, rng, dcqcn_config=DcqcnConfig())
    sim.run(until=sim.now + phase_ns)
    loaded_rdma = pingmesh.rtts_ns()[len(idle_rdma):]
    loaded_tcp = tcp_probe.rtts_ns[len(idle_tcp):]

    rows = []
    for phase, rdma, tcp in (
        ("idle", idle_rdma, idle_tcp),
        ("loaded", loaded_rdma, loaded_tcp),
    ):
        rows.append(
            {
                "phase": phase,
                "rdma_p99_us": percentile(rdma, 99) / US,
                "rdma_p99.9_us": percentile(rdma, 99.9) / US,
                "tcp_p99_us": percentile(tcp, 99) / US if tcp else None,
                "rdma_probes": len(rdma),
                "drops": topo.fabric.total_drops(),
            }
        )
    return CongestionLatencyResult(rows)


def claims(rows):
    """Figure 8: RDMA p99 and p99.9 jump several-fold once the
    saturating load starts, nothing drops, and the TCP class's p99 stays
    in its band (separate queues)."""
    by_phase = {r["phase"]: r for r in rows}
    idle = by_phase["idle"]
    loaded = by_phase["loaded"]
    return [
        # Figure 8's jump: several-fold at both percentiles.
        ("rdma p99 jumps > 4x", loaded["rdma_p99_us"] > 4 * idle["rdma_p99_us"]),
        ("rdma p99.9 jumps > 4x", loaded["rdma_p99.9_us"] > 4 * idle["rdma_p99.9_us"]),
        # Lossless held: no drops anywhere.
        ("loaded: zero drops", loaded["drops"] == 0),
        # The TCP class rode a different queue: same band before and after.
        ("tcp p99 stays < 3x", loaded["tcp_p99_us"] < 3 * idle["tcp_p99_us"]),
    ]

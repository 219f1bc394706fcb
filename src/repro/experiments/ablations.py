"""Ablations: the design choices DESIGN.md calls out, swept.

These go beyond the paper's own tables to quantify its qualitative
claims and its section 8.1 future-work directions:

* :func:`run_cc_comparison` -- none vs DCQCN vs TIMELY on the same
  congested fabric ("the lessons ... apply to the networks using TIMELY
  as well", section 2);
* :func:`run_alpha_sweep` -- the dynamic-buffer parameter swept across
  the section 6.2 range and beyond;
* :func:`run_ecn_sweep` -- DCQCN's Kmin vs PFC pause generation ("small
  queue lengths reduce the PFC generation ... probability");
* :func:`run_gbn_waste` -- go-back-N's RTT x C retransmission waste vs
  cable length (the cost the paper accepts in section 4.1);
* :func:`run_routing_models` -- ECMP vs idealized max-min vs per-packet
  spraying on the figure 7 fabric (section 8.1);
* :func:`run_interdc_distance` -- PFC headroom vs link distance, the
  arithmetic behind "RoCEv2 works only for servers under the same Spine
  switch layer".
"""

from repro.analysis.percentiles import percentile
from repro.dcqcn import DcqcnConfig, enable_dcqcn
from repro.flows import ClosFlowModel
from repro.monitoring.pingmesh import Pingmesh
from repro.rdma.qp import QpConfig, TrafficClass
from repro.rdma.verbs import connect_qp_pair
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS, US, gbps
from repro.switch.buffer import BufferConfig, headroom_bytes
from repro.switch.ecn import EcnConfig
from repro.timely import TimelyConfig, enable_timely
from repro.topo import single_switch
from repro.workloads import ClosedLoopSender, RdmaChannel
from repro.experiments.common import ExperimentResult


class AblationResult(ExperimentResult):
    def __init__(self, title, rows):
        self.title = title
        super().__init__(rows)


# --- congestion control comparison -------------------------------------------------


def _congested_fabric(seed, ecn_enabled):
    return single_switch(
        n_hosts=5,
        seed=seed,
        buffer_config=BufferConfig(alpha=None, xoff_static_bytes=48 * KB),
        ecn_config=EcnConfig(kmin_bytes=10 * KB, kmax_bytes=40 * KB, pmax=0.3,
                             enabled=ecn_enabled),
    ).boot()


def run_cc_comparison(duration_ns=15 * MS, seed=21):
    """4:1 incast under no CC, DCQCN and TIMELY."""
    rows = []
    for mode in ("none", "dcqcn", "timely"):
        topo = _congested_fabric(seed, ecn_enabled=(mode == "dcqcn"))
        sim = topo.sim
        rng = SeededRng(seed, "cc-%s" % mode)
        victim = topo.hosts[0]
        senders = []
        for src in topo.hosts[1:]:
            qp, _ = connect_qp_pair(src, victim, rng)
            if mode == "dcqcn":
                enable_dcqcn(qp, DcqcnConfig())
            elif mode == "timely":
                enable_timely(qp, TimelyConfig(t_low_ns=8 * US, t_high_ns=25 * US))
            senders.append(ClosedLoopSender(RdmaChannel(qp), 64 * KB).start())
        pingmesh = Pingmesh(sim, rng.child("pm"), interval_ns=int(0.5 * MS))
        pingmesh.add_pair(topo.hosts[1], victim)
        pingmesh.start()
        start = sim.now
        sim.run(until=start + duration_ns)
        elapsed = sim.now - start
        rtts = pingmesh.rtts_ns()
        rows.append(
            {
                "cc": mode,
                "pause_frames": topo.tor.pause_frames_sent(),
                "probe_p99_us": percentile(rtts, 99) / US if rtts else None,
                "goodput_gbps": sum(s.completed_bytes for s in senders) * 8.0 / elapsed,
                "drops": topo.fabric.total_drops(),
                "ecn_marks": topo.tor.counters.ecn_marked,
            }
        )
    return AblationResult("Ablation: congestion control (none / DCQCN / TIMELY)", rows)


def cc_comparison_claims(result_rows):
    """Section 2, "the lessons ... apply to the networks using TIMELY as
    well": both controllers keep queues short enough that PFC barely
    fires."""
    rows = {r["cc"]: r for r in result_rows}
    return [
        ("dcqcn: pauses < 1/10 of none",
         rows["dcqcn"]["pause_frames"] < rows["none"]["pause_frames"] / 10),
        ("timely: pauses < 1/10 of none",
         rows["timely"]["pause_frames"] < rows["none"]["pause_frames"] / 10),
        ("dcqcn: probe p99 below none", rows["dcqcn"]["probe_p99_us"] < rows["none"]["probe_p99_us"]),
        ("timely: probe p99 below none",
         rows["timely"]["probe_p99_us"] < rows["none"]["probe_p99_us"]),
        ("no drops", all(r["drops"] == 0 for r in result_rows)),
        ("dcqcn: ECN marks", rows["dcqcn"]["ecn_marks"] > 0),
        ("timely: no ECN mark", rows["timely"]["ecn_marks"] == 0),  # RTT-driven, no ECN needed
    ]


# --- alpha sweep ----------------------------------------------------------------------


#: A2's fabric and QP seed.  The rows are the same at every seed (seeds
#: 1-3 checked), so the runner sweeps none.
_ALPHA_SWEEP_SEED = 22


def run_alpha_sweep(alphas=(1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4),
                    duration_ns=10 * MS):
    """Incast pause generation across the dynamic-threshold range."""
    seed = _ALPHA_SWEEP_SEED
    rows = []
    for alpha in alphas:
        topo = single_switch(
            n_hosts=5, seed=seed, buffer_config=BufferConfig(alpha=alpha)
        ).boot()
        rng = SeededRng(seed, "alpha-%g" % alpha)
        victim = topo.hosts[0]
        for src in topo.hosts[1:]:
            qp, _ = connect_qp_pair(src, victim, rng)
            ClosedLoopSender(RdmaChannel(qp), 512 * KB).start()
        topo.sim.run(until=topo.sim.now + duration_ns)
        rows.append(
            {
                "alpha": "1/%d" % round(1 / alpha),
                "threshold_kb": topo.tor.buffer.threshold() // KB,
                "pause_frames": topo.tor.pause_frames_sent(),
                "drops": topo.fabric.total_drops(),
            }
        )
    return AblationResult("Ablation: dynamic buffer alpha sweep", rows)


def alpha_sweep_claims(result_rows):
    """The section 6.2 parameter, swept: thresholds scale with alpha and
    the incident regime (alpha <= 1/32) storms while 1/16+ absorbs."""
    rows = {r["alpha"]: r for r in result_rows}
    thresholds = [rows["1/%d" % d]["threshold_kb"] for d in (64, 32, 16, 8, 4)]
    return [
        ("thresholds rise with alpha", thresholds == sorted(thresholds)),
        ("1/64: pauses > 1000", rows["1/64"]["pause_frames"] > 1000),
        ("1/16: no pause", rows["1/16"]["pause_frames"] == 0),
        ("no drops", all(r["drops"] == 0 for r in result_rows)),
    ]


# --- ECN threshold sweep ----------------------------------------------------------------


def run_ecn_sweep(kmin_values_kb=(5, 10, 20, 40, 80), duration_ns=10 * MS, seed=23):
    """DCQCN marking aggressiveness vs PFC pause generation."""
    rows = []
    for kmin in kmin_values_kb:
        topo = single_switch(
            n_hosts=5,
            seed=seed,
            buffer_config=BufferConfig(alpha=None, xoff_static_bytes=64 * KB),
            ecn_config=EcnConfig(
                kmin_bytes=kmin * KB, kmax_bytes=4 * kmin * KB, pmax=0.3
            ),
        ).boot()
        rng = SeededRng(seed, "ecn-%d" % kmin)
        victim = topo.hosts[0]
        senders = []
        for src in topo.hosts[1:]:
            qp, _ = connect_qp_pair(src, victim, rng)
            enable_dcqcn(qp)
            senders.append(ClosedLoopSender(RdmaChannel(qp), 256 * KB).start())
        start = topo.sim.now
        topo.sim.run(until=start + duration_ns)
        elapsed = topo.sim.now - start
        rows.append(
            {
                "kmin_kb": kmin,
                "ecn_marks": topo.tor.counters.ecn_marked,
                "pause_frames": topo.tor.pause_frames_sent(),
                "goodput_gbps": sum(s.completed_bytes for s in senders) * 8.0 / elapsed,
            }
        )
    return AblationResult("Ablation: DCQCN Kmin vs PFC pause generation", rows)


def ecn_sweep_claims(rows):
    """Section 2's rationale for DCQCN, quantified: earlier ECN marking
    (smaller Kmin) trades marks for pauses."""
    pauses = [r["pause_frames"] for r in rows]
    marks = [r["ecn_marks"] for r in rows]
    # Kmin ascending: pauses rise, marks fall.
    return [
        ("pauses rise with Kmin", pauses == sorted(pauses)),
        ("marks fall with Kmin", marks == sorted(marks, reverse=True)),
    ]


# --- TCP flavour: Reno vs DCTCP ----------------------------------------------------------------


def run_tcp_flavours(duration_ns=80 * MS, seed=26):
    """The TCP class under incast: Reno vs DCTCP.

    The paper keeps TCP in a lossy class where incast means drops and
    RTO-scale tails (figure 6); its authors' companion work on ECN
    tuning [38] points at the fix this ablation measures: DCTCP reacts
    to CE marks before the lossy queue overflows.
    """
    from repro.switch.ecn import EcnConfig as _Ecn
    from repro.tcp import TcpConfig, connect_tcp_pair

    rows = []
    for flavour in ("reno", "dctcp"):
        topo = single_switch(
            n_hosts=5,
            seed=seed,
            buffer_config=BufferConfig(
                alpha=None, xoff_static_bytes=96 * KB, lossy_egress_cap_bytes=128 * KB
            ),
            ecn_config=_Ecn(kmin_bytes=10 * KB, kmax_bytes=40 * KB, pmax=0.5),
        ).boot()
        rng = SeededRng(seed, "tcpflav-%s" % flavour)
        victim = topo.hosts[0]
        latencies = []
        connections = []

        def config():
            return TcpConfig(ecn_enabled=(flavour == "dctcp"))

        for src in topo.hosts[1:]:
            conn, _ = connect_tcp_pair(src, victim, rng, config_a=config(), config_b=config())
            connections.append(conn)
            for _ in range(4):
                conn.send_message(256 * KB, on_delivered=latencies.append)
        topo.sim.run(until=topo.sim.now + duration_ns)
        drops = (
            topo.tor.counters.drops["egress-lossy"]
            + topo.tor.counters.drops["buffer-lossy"]
        )
        rows.append(
            {
                "flavour": flavour,
                "drops": drops,
                "rtos": sum(c.stats.rtos for c in connections),
                "ce_acks": sum(c.stats.ce_acks for c in connections),
                "delivered": len(latencies),
                "p99_ms": percentile(latencies, 99) / 1e6 if latencies else None,
            }
        )
    return AblationResult("Ablation: TCP class flavour (Reno vs DCTCP)", rows)


def tcp_flavours_claims(rows):
    """Reacting to CE marks before the queue overflows removes most
    incast drops (the fix the paper's companion ECN-tuning work [38]
    points toward)."""
    rows = {r["flavour"]: r for r in rows}
    return [
        ("dctcp drops fewer than reno", rows["dctcp"]["drops"] < rows["reno"]["drops"]),
        ("dctcp sees CE", rows["dctcp"]["ce_acks"] > 0),
        ("reno sees no CE", rows["reno"]["ce_acks"] == 0),
        ("dctcp delivers at least reno's messages",
         rows["dctcp"]["delivered"] >= rows["reno"]["delivered"]),
    ]


# --- go-back-N waste ------------------------------------------------------------------------


#: A4's fabric and QP seed.  The rows are the same at every seed (seeds
#: 1-3 checked), so the runner sweeps none.
_GBN_WASTE_SEED = 24


def run_gbn_waste(cable_meters=(2, 300, 2000), duration_ns=15 * MS):
    """Go-back-N's retransmission waste grows with RTT ("up to RTT x C
    bytes ... wasted for a single packet drop", section 4.1).
    """
    seed = _GBN_WASTE_SEED
    rows = []
    for meters in cable_meters:
        topo = single_switch(n_hosts=2, seed=seed)
        # Rebuild the links at the requested length.
        for link in topo.fabric.links:
            link.delay_ns = meters * 5
        topo.boot()
        topo.tor.ingress_drop_filter = (
            lambda p: p.ip is not None and p.ip.identification & 0x3FF == 0x3FF
        )  # 1/1024 deterministic drop
        rng = SeededRng(seed, "gbn-%d" % meters)
        config = QpConfig(window_packets=2048, rto_ns=2 * MS)
        qp, _ = connect_qp_pair(
            topo.hosts[0], topo.hosts[1], rng, config_a=config, config_b=config
        )
        sender = ClosedLoopSender(RdmaChannel(qp), 1 * MB).start()
        start = topo.sim.now
        topo.sim.run(until=start + duration_ns)
        elapsed = topo.sim.now - start
        drops = topo.tor.counters.drops["filter"]
        retx = qp.stats.retransmitted_packets
        rows.append(
            {
                "cable_m": meters,
                "rtt_us": 4 * meters * 5 / 1000,
                "drops": drops,
                "retransmitted_packets": retx,
                "waste_per_drop_packets": retx / drops if drops else 0.0,
                "goodput_gbps": sender.completed_bytes * 8.0 / elapsed,
            }
        )
    return AblationResult("Ablation: go-back-N waste vs RTT", rows)


def gbn_waste_claims(rows):
    """Section 4.1's accepted cost: go-back-N wastes up to RTT x C per
    drop, so the waste grows with distance."""
    waste = [r["waste_per_drop_packets"] for r in rows]
    return [
        ("waste grows with distance", waste == sorted(waste)),
        ("longest cable wastes > 10x shortest", waste[-1] > 10 * waste[0]),
        # Goodput survives everywhere (no livelock), merely degrades.
        ("goodput > 20 Gb/s everywhere", all(r["goodput_gbps"] > 20 for r in rows)),
    ]


# --- routing / load balancing models -----------------------------------------------------------


def run_routing_models(seed=25):
    """Figure 7's fabric under three load-balancing models."""
    model = ClosFlowModel(seed=seed)
    rows = []
    for allocation, label in (
        ("pfc-uniform", "ecmp+pfc (deployed)"),
        ("maxmin", "ecmp, ideal per-flow fairness"),
        ("per-packet", "per-packet spraying (future work)"),
    ):
        result = model.run(allocation)
        rows.append(
            {
                "model": label,
                "aggregate_tbps": result.aggregate_bps / 1e12,
                "utilization": result.utilization,
                "per_server_gbps": result.per_server_gbps(),
            }
        )
    return AblationResult("Ablation: load-balancing models on the figure 7 fabric", rows)


def routing_models_claims(rows):
    """Section 8.1: per-packet spraying / MPTCP-class load balancing
    would recover the ~40% that ECMP hash collisions cost figure 7."""
    rows = {r["model"]: r for r in rows}
    deployed = rows["ecmp+pfc (deployed)"]
    future = rows["per-packet spraying (future work)"]
    return [
        ("deployed utilization in [0.55, 0.72]", 0.55 <= deployed["utilization"] <= 0.72),
        ("spraying utilization > 0.95", future["utilization"] > 0.95),
    ]


# --- inter-DC distances -------------------------------------------------------------------------


def run_interdc_distance(distances_m=(300, 2_000, 10_000, 100_000), rate=40):
    """Headroom per PG vs link distance: why "RoCEv2 is not as generic
    as TCP" and needs "new ideas ... for inter-DC communications"
    (section 8.1).
    """
    rows = []
    for meters in distances_m:
        per_pg = headroom_bytes(gbps(rate), cable_meters=meters, mtu_bytes=9216)
        rows.append(
            {
                "distance_m": meters,
                "headroom_per_pg_mb": per_pg / (1024 * 1024),
                "pgs_per_9mb_buffer": max(0, int(9 * 1024 * 1024 // per_pg)),
            }
        )
    return AblationResult("Ablation: PFC headroom vs distance (inter-DC limit)", rows)


def interdc_distance_claims(rows):
    """Section 8.1: "the hop-by-hop distance for PFC is limited to 300
    meters" -- headroom growth makes lossless inter-DC links absurd."""
    rows = {r["distance_m"]: r for r in rows}
    return [
        ("300 m: >= 64 PGs per 9 MB buffer",
         rows[300]["pgs_per_9mb_buffer"] >= 64),  # a full switch works
        ("100 km: <= 2 PGs per 9 MB buffer",
         rows[100_000]["pgs_per_9mb_buffer"] <= 2),  # one PG per buffer!
        ("100 km: headroom > 4 MB per PG", rows[100_000]["headroom_per_pg_mb"] > 4),
    ]

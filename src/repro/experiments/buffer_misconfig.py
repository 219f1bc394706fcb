"""E8 -- the switch buffer misconfiguration incident (paper section 6.2,
figure 10).

A newly introduced ToR model shipped with the dynamic-buffer parameter
alpha = 1/64 where the fleet expected 1/16.  Two such ToRs hosted chatty
servers fanning queries out to 1000+ servers; the synchronized responses
(incast) crossed the *much smaller* dynamic threshold easily, the ToRs
poured pause frames into the network, and latency-sensitive services
collapsed (figure 10a) while servers logged up to 60000 pauses per
5 minutes (figure 10b).  The config-monitoring service is what caught
the drift; tuning alpha back to 1/16 resolved it.
"""

from repro.analysis.percentiles import percentile
from repro.monitoring.config_mgmt import ConfigMonitor, DesiredConfig
from repro.monitoring.pingmesh import Pingmesh
from repro.packets.packet import PriorityMode
from repro.rdma.qp import QpConfig, TrafficClass
from repro.rdma.verbs import connect_qp_pair
from repro.sim import SeededRng
from repro.sim.units import KB, MS, US
from repro.switch.buffer import BufferConfig
from repro.topo import two_tier
from repro.workloads import PeriodicIncast, RdmaChannel
from repro.experiments.common import ExperimentResult


class BufferMisconfigResult(ExperimentResult):
    title = "E8: buffer alpha misconfiguration, figure 10 (section 6.2)"


def _run_one(alpha, duration_ns, seed, burst_bytes, fanin_extra):
    topo = two_tier(
        n_tors=2,
        hosts_per_tor=6,
        n_leaves=2,
        seed=seed,
        buffer_config=BufferConfig(alpha=alpha),
    ).boot()
    sim = topo.sim
    rng = SeededRng(seed, "alpha")
    t0_hosts, t1_hosts = topo.hosts_by_tor

    # The chatty server on T0 queries everyone; responses incast on it.
    chatty = t0_hosts[0]
    responders = t0_hosts[2:] + t1_hosts[2:]
    channels = []
    for responder in responders:
        qp, _ = connect_qp_pair(
            responder, chatty, rng,
            config_a=QpConfig(traffic_class=TrafficClass(dscp=3, priority=3)),
            config_b=QpConfig(traffic_class=TrafficClass(dscp=3, priority=3)),
        )
        channels.append(RdmaChannel(qp))
    incast = PeriodicIncast(
        sim, channels * fanin_extra, burst_bytes, period_ns=1 * MS,
        rng=rng.child("jit"), jitter_ns=50_000,
    )

    # The victim latency-sensitive service: probes between hosts that
    # merely share the fabric with the chatty ToR.
    pingmesh = Pingmesh(
        sim, rng.child("pm"), interval_ns=int(0.5 * MS),
        traffic_class=TrafficClass(dscp=3, priority=3),
    )
    pingmesh.add_pair(t0_hosts[1], t1_hosts[1])
    pingmesh.start()
    incast.start()
    sim.run(until=sim.now + duration_ns)

    tor_pause_tx = sum(t.pause_frames_sent() for t in topo.tors)
    leaf_pause_rx = sum(l.pause_frames_received() for l in topo.leaves)
    rtts = pingmesh.rtts_ns()
    drifts = _drift_check(alpha, seed)
    return {
        "alpha": "1/%d" % round(1 / alpha),
        "threshold_kb": topo.tors[0].buffer.threshold() / KB,
        "tor_pauses_sent": tor_pause_tx,
        "leaf_pauses_received": leaf_pause_rx,
        "victim_p99_us": percentile(rtts, 99) / US if rtts else None,
        "victim_timeouts": sum(1 for r in pingmesh.results if not r.ok),
        "config_drifts": len(drifts),
        "first_drift_field": drifts[0].field if drifts else None,
    }


def run_buffer_misconfig(duration_ns=40 * MS, burst_bytes=64 * KB, fanin_extra=2, seed=1):
    """Reproduce figure 10's alpha = 1/64 incident and the 1/16 fix.

    Each row's config-drift check shows how the incident was caught.
    """
    return BufferMisconfigResult([
        _run_one(1.0 / 64, duration_ns, seed, burst_bytes, fanin_extra),
        _run_one(1.0 / 16, duration_ns, seed, burst_bytes, fanin_extra),
    ])


def _drift_check(alpha, seed):
    """The monitoring angle: a fabric where one new-model ToR runs
    ``alpha`` against a desired 1/16 -- config monitoring flags exactly
    that ToR when ``alpha`` drifted, and nothing when it did not."""
    topo = two_tier(n_tors=2, hosts_per_tor=2, n_leaves=1, seed=seed)
    topo.tors[1].buffer_config = BufferConfig(alpha=alpha)
    topo.boot()
    desired = DesiredConfig(
        priority_mode=PriorityMode.DSCP,
        lossless_priorities=frozenset((3, 4)),
        buffer_alpha=1.0 / 16,
    )
    return ConfigMonitor(desired).check_fabric(topo.fabric)


def claims(rows):
    """Figure 10: alpha = 1/64 turns routine incast into pause storms
    that inflate the victim's latency; 1/16 absorbs the same incast, and
    config monitoring flags the drifted device."""
    by_alpha = {r["alpha"]: r for r in rows}
    bad = by_alpha["1/64"]
    good = by_alpha["1/16"]
    return [
        # The misconfigured threshold is ~4x smaller and pauses pour out.
        ("1/64 threshold < 1/3 of 1/16", bad["threshold_kb"] < good["threshold_kb"] / 3),
        ("1/64: ToR pauses > 50", bad["tor_pauses_sent"] > 50),
        ("1/16: ToR pauses < 1/10 of 1/64",
         good["tor_pauses_sent"] < bad["tor_pauses_sent"] / 10),
        # Collateral damage on the latency-sensitive victim service.
        ("1/64: victim p99 > 2x", bad["victim_p99_us"] > 2 * good["victim_p99_us"]),
        # The config-monitoring service flags exactly the drifted device.
        ("1/64: one config drift", bad["config_drifts"] == 1),
        ("1/64: the drift is buffer_alpha", bad["first_drift_field"] == "buffer_alpha"),
    ]

"""The nine pinned scenarios.

Each scenario is a self-contained build-and-run function returning a
:class:`ScenarioRun`: how many events fired, how many packets crossed a
link, how much simulated time elapsed -- and a **fingerprint** of what
the run did (:mod:`repro.bench.digest`): for a packet scenario, every
frame put on a wire, when, where and with what fate.
:func:`repro.bench.gate.check` compares the three to
``benchmarks/BASELINE.json``.

Scenarios are chosen to stress complementary parts of the packet path:

========================  ====================================================
``engine_churn``          raw event dispatch + timer re-arm (no packets)
``single_flow``           one QP through one ToR, 1%% loss, go-back-N recovery
``incast_tor``            7-to-1 incast into one ToR, PFC pause/resume active
``pause_storm``           a broken NIC storms a 3-tier Clos; watchdogs confine
``clos_slice``            saturating cross-podset traffic on a 3-tier Clos
``clos_pod``              one full podset (~4x clos_slice), same traffic shape
``tcp_baseline``          TCP incast with lossy-egress drops and recovery
``flowsim_churn``         flow-level tier: exact-mode churn on a two-tier pod
``flowsim_clos``          flow-level tier: 512-host Clos, interval batching
========================  ====================================================

The two ``flowsim_*`` scenarios run the *flow-level* simulator
(:mod:`repro.flowsim`) -- there ``packets`` counts completed flows, and
the fingerprint digests the engine's integer-only run tuple (completion
CRC included).

Cross-process determinism: every switch's ECMP seed is a pure function
of its name (:func:`repro.switch.ecmp.ecmp_seed`) and every digested
field is an integer, so fingerprints are stable across processes,
machines and Python versions -- which is what lets the pin file be
checked in at all.
"""

from repro.bench.digest import WireDigest, digest
from repro.sim import SeededRng, Simulator
from repro.sim.timer import Timer
from repro.sim.units import KB, MB, MS, US


class ScenarioRun:
    """The outcome of one scenario execution (simulated side only)."""

    __slots__ = ("events", "packets", "sim_ns", "fingerprint", "detail")

    def __init__(self, events, packets, sim_ns, fingerprint, detail=None):
        self.events = events
        self.packets = packets
        self.sim_ns = sim_ns
        self.fingerprint = fingerprint
        self.detail = detail or {}


class BenchScenario:
    """One named scenario: metadata plus its runner."""

    __slots__ = ("name", "title", "paper_ref", "fn")

    def __init__(self, name, title, paper_ref, fn):
        self.name = name
        self.title = title
        self.paper_ref = paper_ref
        self.fn = fn

    def run(self, seed=1):
        return self.fn(seed)


def _boot(topo):
    """Boot ``topo`` with a :class:`WireDigest` on its fabric (attached
    first, so the ARP settle is in it); returns the digest."""
    wire = WireDigest(topo.fabric)
    topo.boot()
    return wire


def _packet_run(wire):
    """The :class:`ScenarioRun` of a packet scenario whose wire is ``wire``."""
    fabric = wire.fabric
    return ScenarioRun(
        events=fabric.sim.events_fired,
        packets=sum(link.delivered for link in fabric.links),
        sim_ns=fabric.sim.now,
        fingerprint=wire.hexdigest(),
    )


# -- scenarios ---------------------------------------------------------------


def engine_churn(seed):
    """Raw substrate cost: chained events plus timer re-arm churn.

    No packets: this floor is what every packet-level scenario pays per
    event before any model code runs.
    """
    sim = Simulator()
    rng = SeededRng(seed, "bench/engine")
    remaining = [200_000]
    timer = Timer(sim, lambda: None, name="churn")

    def tick():
        remaining[0] -= 1
        # Re-arm a timer on every tick: the RTO/pause-refresh pattern.
        timer.start(rng.randint(5, 50))
        if remaining[0] > 0:
            sim.schedule(10, tick)

    sim.schedule(0, tick)
    sim.run_until_idle()
    return ScenarioRun(
        events=sim.events_fired,
        packets=0,
        sim_ns=sim.now,
        fingerprint=digest((sim.events_fired, sim.now)),
    )


def single_flow(seed):
    """One go-back-N QP through one ToR with 1% link loss (section 4.1's
    recovery machinery on the wire, minus the livelock)."""
    from repro.rdma import GoBackN, QpConfig, connect_qp_pair, post_send
    from repro.topo import single_switch

    topo = single_switch(n_hosts=2, seed=seed)
    wire = _boot(topo)
    link = topo.fabric.links[0]
    link.loss_rate = 0.01
    link._loss_rng = SeededRng(seed, "bench/loss")
    rng = SeededRng(seed, "bench/flow")
    config = QpConfig(recovery=GoBackN(), rto_ns=200 * US)
    qp, _ = connect_qp_pair(
        topo.hosts[0], topo.hosts[1], rng, config_a=config, config_b=config
    )
    post_send(qp, 8 * MB)
    topo.sim.run(until=topo.sim.now + 25 * MS)
    return _packet_run(wire)


def incast_tor(seed):
    """7-to-1 incast under one ToR: the PFC pause/resume and shared-buffer
    admission hot path (section 2's mechanism at full boil)."""
    from repro.rdma import connect_qp_pair
    from repro.switch.buffer import BufferConfig
    from repro.topo import single_switch
    from repro.workloads import ClosedLoopSender, RdmaChannel

    topo = single_switch(
        n_hosts=8,
        seed=seed,
        buffer_config=BufferConfig(alpha=None, xoff_static_bytes=48 * KB),
    )
    wire = _boot(topo)
    rng = SeededRng(seed, "bench/incast")
    victim = topo.hosts[0]
    for src in topo.hosts[1:]:
        qp, _ = connect_qp_pair(src, victim, rng)
        ClosedLoopSender(RdmaChannel(qp), 256 * KB).start()
    topo.sim.run(until=topo.sim.now + 5 * MS)
    return _packet_run(wire)


def pause_storm(seed):
    """A NIC whose receive pipeline dies mid-run storms a 3-tier Clos;
    both watchdogs are armed (section 4.3, timescales compressed)."""
    from repro.nic.nic import NicConfig, NicWatchdogConfig
    from repro.switch.buffer import BufferConfig
    from repro.switch.watchdog import SwitchWatchdogConfig
    from repro.topo import three_tier_clos
    from repro.workloads import ClosedLoopSender, RdmaChannel
    from repro.rdma import connect_qp_pair

    nic_config = NicConfig(
        watchdog_config=NicWatchdogConfig(
            stall_threshold_ns=1 * MS, poll_interval_ns=250 * US
        )
    )
    topo = three_tier_clos(
        n_podsets=2,
        tors_per_podset=2,
        hosts_per_tor=2,
        leaves_per_podset=2,
        n_spines=2,
        seed=seed,
        nic_config=nic_config,
        buffer_config=BufferConfig(alpha=None, xoff_static_bytes=96 * KB),
    )
    wire = _boot(topo)
    for podset in topo.podsets:
        for tor in podset["tors"]:
            tor.enable_storm_watchdog(
                SwitchWatchdogConfig(poll_interval_ns=250 * US, reenable_after_ns=2 * MS)
            )
    sim = topo.sim
    rng = SeededRng(seed, "bench/storm")
    hosts = topo.hosts
    victim = hosts[0]
    pairs = [(src, victim) for src in hosts[1:4]] + list(zip(hosts[4:6], hosts[6:8]))
    for a, b in pairs:
        qp, _ = connect_qp_pair(a, b, rng)
        ClosedLoopSender(RdmaChannel(qp), 512 * KB).start()
    sim.schedule(1 * MS, victim.nic.break_rx_pipeline)
    sim.run(until=sim.now + 6 * MS)
    return _packet_run(wire)


def clos_slice(seed):
    """The flagship: saturating cross-podset RDMA pairs on a 3-tier Clos
    slice — ECMP, PFC, multi-hop forwarding and NIC scheduling all hot
    (the packet-level cross-check of figure 7's fabric)."""
    from repro.topo import three_tier_clos
    from repro.experiments.common import saturate_pairs

    topo = three_tier_clos(
        n_podsets=2,
        tors_per_podset=2,
        hosts_per_tor=2,
        leaves_per_podset=2,
        n_spines=2,
        seed=seed,
    )
    wire = _boot(topo)
    sim = topo.sim
    rng = SeededRng(seed, "bench/clos")
    hosts = topo.hosts
    half = len(hosts) // 2
    pairs = [(hosts[i], hosts[half + i]) for i in range(half)]
    pairs += [(hosts[half + i], hosts[i]) for i in range(half)]
    saturate_pairs(sim, pairs, 1 * MB, rng)
    sim.run(until=sim.now + 4 * MS)
    return _packet_run(wire)


def clos_pod(seed):
    """One full podset of the paper's fabric at ~4x the clos_slice scale:
    4 ToRs x 4 hosts per podset, 4 leaves, 4 spines — the scaling check
    that the engine's per-event cost stays flat as the topology grows."""
    from repro.topo import three_tier_clos
    from repro.experiments.common import saturate_pairs

    topo = three_tier_clos(
        n_podsets=2,
        tors_per_podset=4,
        hosts_per_tor=4,
        leaves_per_podset=4,
        n_spines=4,
        seed=seed,
    )
    wire = _boot(topo)
    sim = topo.sim
    rng = SeededRng(seed, "bench/pod")
    hosts = topo.hosts
    half = len(hosts) // 2
    pairs = [(hosts[i], hosts[half + i]) for i in range(half)]
    pairs += [(hosts[half + i], hosts[i]) for i in range(half)]
    saturate_pairs(sim, pairs, 1 * MB, rng)
    sim.run(until=sim.now + 2 * MS)
    return _packet_run(wire)


def tcp_baseline(seed):
    """TCP incast through one ToR with a lossy egress cap: the kernel
    stack, Reno recovery and egress drops (the figure 6 contrast)."""
    from repro.switch.buffer import BufferConfig
    from repro.tcp import connect_tcp_pair
    from repro.topo import single_switch
    from repro.workloads import ClosedLoopSender, TcpChannel

    topo = single_switch(
        n_hosts=6,
        seed=seed,
        buffer_config=BufferConfig(lossy_egress_cap_bytes=120 * KB),
    )
    wire = _boot(topo)
    rng = SeededRng(seed, "bench/tcp")
    victim = topo.hosts[0]
    for src in topo.hosts[1:]:
        conn, _ = connect_tcp_pair(src, victim, rng)
        ClosedLoopSender(TcpChannel(conn), 256 * KB).start()
    topo.sim.run(until=topo.sim.now + 6 * MS)
    return _packet_run(wire)


def flowsim_churn(seed):
    """The flow-level tier's dispatch floor: exact-mode arrival/completion
    churn on a two-tier pod, every batch a full incremental max-min
    recompute (the solver and heap hot path, no interval batching)."""
    from repro.flowsim import FlowSim, two_tier_flow
    from repro.workloads.distributions import WEB_CDF

    topology = two_tier_flow(n_tors=4, hosts_per_tor=8)
    sim = FlowSim.from_topology(topology, rate_update_interval_ns=0)
    rng = SeededRng(seed, "bench/flowsim-churn")
    n_hosts = topology.n_hosts
    window_ns = 20 * MS
    for _ in range(4000):
        src = rng.randint(0, n_hosts - 1)
        dst = (src + rng.randint(1, n_hosts - 1)) % n_hosts
        sim.add_host_flow(
            src,
            dst,
            WEB_CDF.sample(rng),
            start_ns=rng.randint(0, window_ns - 1),
            sport=rng.randint(49152, 65535),
        )
    run = sim.run()
    return ScenarioRun(
        events=run.n_events,
        packets=run.n_completed,
        sim_ns=run.sim_ns,
        fingerprint=digest(run.fingerprint()),
        detail={"recomputes": run.n_recomputes, "superseded": run.n_superseded},
    )


def flowsim_clos(seed):
    """The flow-level tier at fabric scale: a 512-host three-tier Clos
    carrying cross-podset pair traffic from the storage CDF, rates
    re-solved on 500us interval boundaries (the F1 scenario's shape at
    bench-friendly size)."""
    from repro.experiments.flowsim_scale import build_scale_workload
    from repro.flowsim import FlowSim, clos_flow
    from repro.sim.units import US

    topology = clos_flow(
        n_podsets=4,
        tors_per_podset=8,
        hosts_per_tor=16,
        leaves_per_podset=4,
        n_spines=8,
    )
    sim = FlowSim.from_topology(topology, rate_update_interval_ns=500 * US)
    build_scale_workload(sim, topology, seed, workload="storage", n_podsets=4)
    run = sim.run()
    return ScenarioRun(
        events=run.n_events,
        packets=run.n_completed,
        sim_ns=run.sim_ns,
        fingerprint=digest(run.fingerprint()),
        detail={"recomputes": run.n_recomputes, "superseded": run.n_superseded},
    )


#: name -> BenchScenario, in presentation order.
SCENARIOS = {
    scenario.name: scenario
    for scenario in (
        BenchScenario(
            "engine_churn",
            "event dispatch + timer re-arm floor",
            "substrate (no paper section)",
            engine_churn,
        ),
        BenchScenario(
            "single_flow",
            "one lossy QP, go-back-N recovery",
            "section 4.1 machinery",
            single_flow,
        ),
        BenchScenario(
            "incast_tor",
            "7-to-1 incast, PFC active",
            "section 2 (figure 2)",
            incast_tor,
        ),
        BenchScenario(
            "pause_storm",
            "NIC pause storm + watchdogs on 3-tier Clos",
            "section 4.3 (figures 5, 9)",
            pause_storm,
        ),
        BenchScenario(
            "clos_slice",
            "saturating cross-podset Clos slice",
            "section 5.4 (figure 7 check)",
            clos_slice,
        ),
        BenchScenario(
            "clos_pod",
            "one full podset, saturating cross-podset pairs",
            "section 3 fabric scale check",
            clos_pod,
        ),
        BenchScenario(
            "tcp_baseline",
            "TCP incast with egress drops",
            "section 5.4 (figure 6 contrast)",
            tcp_baseline,
        ),
        BenchScenario(
            "flowsim_churn",
            "flow-level exact-mode churn, two-tier pod",
            "sections 1, 5.4 (flow-level tier)",
            flowsim_churn,
        ),
        BenchScenario(
            "flowsim_clos",
            "flow-level 512-host Clos, interval batching",
            "sections 1, 5.4 (flow-level tier)",
            flowsim_clos,
        ),
    )
}


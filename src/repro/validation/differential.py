"""Run one scenario through the packet simulator, against the flow model.

The differential contract: the packet simulator's measured per-flow
goodput must sit inside a tolerance band anchored by the analytic models
in :mod:`repro.flows` -- the max-min allocation above, the PFC-uniform
allocation below.  To feed those models the *realized* contention (ECMP
collisions included), flows are traced statically through the live
forwarding tables with the same five-tuple hash the switches use, so
the model sees exactly the links each flow actually crossed.

Measurement is transport-level: goodput over the measurement window is
the cumulative-ack (``una``) advance times the MTU payload, which is
immune to message-completion quantization.  After the window every
sender stops posting and the fabric must drain -- a whole-run
conservation check that doubles as a deadlock detector.
"""

from repro.faults.invariants import (
    CONSERVATION_INVARIANTS,
    install_default_auditors,
)
from repro.flows.maxmin import max_min_allocation
from repro.flowsim.topo import EFFICIENCY
from repro.packets.ip import IPPROTO_UDP
from repro.packets.rocev2 import ROCEV2_UDP_PORT
from repro.rdma.qp import QpConfig
from repro.rdma.recovery import GoBack0
from repro.rdma.verbs import connect_qp_pair
from repro.sim.rng import SeededRng
from repro.sim.units import KB, MS, US, gbps
from repro.switch.buffer import BufferConfig
from repro.switch.ecmp import ecmp_select
from repro.switch.ecn import EcnConfig
from repro.switch.forwarding import ForwardDecision
from repro.topo.builders import Topology
from repro.validation.scenarios import fabric_spec
from repro.workloads import ClosedLoopSender, RdmaChannel

MTU_PAYLOAD = 1024

_DRAIN_CHUNK_NS = 500 * US
_SETTLE_NS = 100 * US


class TraceError(Exception):
    """Static path tracing failed (no route, flood, loop, dead end)."""


class FlowOutcome:
    """One flow's measured and modelled rates."""

    def __init__(self, src, dst, message_kb):
        self.src = src
        self.dst = dst
        self.message_kb = message_kb
        self.measured_bps = 0.0
        self.share_bps = None  # max-min fair share (goodput bps)
        self.uniform_bps = None  # PFC-uniform share (goodput bps)
        self.bottleneck_bps = None  # min link capacity on path (goodput bps)
        self.path = []
        self.posted = 0
        self.completed = 0
        self.dead_dst = False

    def to_dict(self):
        return {
            "src": self.src,
            "dst": self.dst,
            "message_kb": self.message_kb,
            "measured_bps": self.measured_bps,
            "share_bps": self.share_bps,
            "uniform_bps": self.uniform_bps,
            "bottleneck_bps": self.bottleneck_bps,
            "posted": self.posted,
            "completed": self.completed,
            "dead_dst": self.dead_dst,
        }


class RunOutcome:
    """Everything the oracles need to judge one scenario run."""

    def __init__(self, scenario, mutation=None):
        self.scenario = scenario
        self.mutation = mutation
        self.flows = []
        self.drained = False
        self.queues_empty = False
        self.measure_window_ns = 0
        self.drops = {}
        self.flood_copies = 0
        self.pause_frames = 0
        self.conservation_violations = 0
        self.liveness_violations = 0
        self.tripped = []
        self.audit_summary = ""
        self.violations = []  # filled by oracles.judge_run

    @property
    def total_drops(self):
        return sum(self.drops.values())

    def drops_excluding(self, *reasons):
        return sum(n for reason, n in self.drops.items() if reason not in reasons)


# -- topology -----------------------------------------------------------------


def build_topology(scenario):
    """Instantiate (and boot) the scenario's fabric from its spec."""
    if scenario.kind == "deadlock":
        # Figure 4's quad, with the paper's static-threshold buffers; the
        # ARP-drop fix is ON unless the mutation under test disables it.
        config = {
            "buffer_config": BufferConfig(
                alpha=None, xoff_static_bytes=96 * KB, headroom_per_pg_bytes=40 * KB
            ),
            "forwarding_kwargs": {"drop_lossless_on_incomplete_arp": True},
        }
    else:
        config = {"ecn_config": EcnConfig() if scenario.ecn else None}
    return Topology(
        fabric_spec(scenario.kind, scenario.dims),
        rate_bps=gbps(scenario.link_gbps),
        seed=scenario.seed,
        **config
    ).boot()


def _drop_ip_id_ff(packet):
    """The section 4.1 testbed's deterministic 1/256 loss."""
    return packet.ip is not None and packet.ip.identification & 0xFF == 0xFF


def _hosts_of(topo, scenario):
    """Flow endpoints: list-indexed for generated kinds, named for the
    deadlock quad."""
    if scenario.kind == "deadlock":
        return {host.name: host for host in topo.hosts}
    return dict(enumerate(topo.hosts))


# -- static path tracing ------------------------------------------------------


def trace_flow_path(src_host, dst_host, five_tuple):
    """Walk a flow's path through the live forwarding state.

    Replays exactly what each switch will do per packet: longest-prefix
    route (or local ARP + MAC delivery) via ``tables.decide``, then the
    same CRC ECMP hash with the switch's *live* ``ecmp_seed``.  Returns
    ``[(directed_link_id, rate_bps), ...]`` -- one entry per traversed
    egress port, identified by the port's name (each port sends on one
    link direction, so port identity is directed-link identity).
    """
    port = src_host.nic.port
    if port.link is None:
        raise TraceError("%s is not wired" % src_host.name)
    path = [(port.name, port.link.rate_bps)]
    device = port.peer.device
    dst_ip = dst_host.ip
    for _hop in range(16):
        tables = getattr(device, "tables", None)
        if tables is None:
            if device is not dst_host.nic:
                raise TraceError(
                    "trace for %s -> %s ended at %s"
                    % (src_host.name, dst_host.name, device.name)
                )
            return path
        decision = tables.decide(dst_ip, lossless=True)
        if decision.action != ForwardDecision.FORWARD:
            raise TraceError(
                "%s: %s (%s)" % (device.name, decision.action, decision.reason)
            )
        ports = decision.ports
        if len(ports) > 1:
            egress_idx = ports[ecmp_select(five_tuple, len(ports), device.ecmp_seed)]
        else:
            egress_idx = ports[0]
        egress = device.ports[egress_idx]
        if egress.link is None:
            raise TraceError("%s egress %s is not wired" % (device.name, egress.name))
        path.append((egress.name, egress.link.rate_bps))
        device = egress.peer.device
    raise TraceError(
        "no path from %s to %s within 16 hops (routing loop?)"
        % (src_host.name, dst_host.name)
    )


def expected_allocation(paths):
    """Model rates for traced flows: per-flow max-min shares plus the
    PFC-uniform common rate (fair share of the most contended link --
    provably a lower bound on every flow's max-min share).

    ``paths`` is a list of ``[(link_id, rate_bps), ...]``; returns
    ``(shares, uniform, bottlenecks)`` in goodput bits per second.
    """
    caps = {}
    id_paths = []
    for path in paths:
        ids = []
        for link_id, rate_bps in path:
            caps[link_id] = rate_bps * EFFICIENCY
            ids.append(link_id)
        id_paths.append(ids)
    shares = max_min_allocation(caps, id_paths)
    counts = {}
    for ids in id_paths:
        for link_id in ids:
            counts[link_id] = counts.get(link_id, 0) + 1
    uniform = min(caps[link_id] / n for link_id, n in counts.items())
    bottlenecks = [min(caps[link_id] for link_id in ids) for ids in id_paths]
    return shares, uniform, bottlenecks


# -- running ------------------------------------------------------------------


def run_scenario(scenario, mutation=None, tolerances=None):
    """One full differential run; returns a judged-ready :class:`RunOutcome`.

    ``mutation`` deliberately re-introduces a paper bug so the harness
    can prove its own sensitivity: ``"go-back-0"`` reverts loss recovery
    to the vendor's message-restart policy (section 4.1), and
    ``"no-arp-drop"`` disables the lossless-ARP drop deadlock fix
    (section 4.2, deadlock scenarios only).  ``tolerances`` overrides
    the oracle bands (defaults to :class:`~repro.validation.oracles
    .Tolerances`).
    """
    outcome = RunOutcome(scenario, mutation=mutation)
    topo = build_topology(scenario)
    fabric, sim = topo.fabric, topo.sim
    if mutation == "no-arp-drop":
        for switch in fabric.switches:
            switch.tables.drop_lossless_on_incomplete_arp = False
    if scenario.lossy:
        fabric.switches[0].ingress_drop_filter = _drop_ip_id_ff
    hosts = _hosts_of(topo, scenario)

    for name in scenario.dead_hosts:
        host = hosts[name]
        host.die()
        for switch in fabric.switches:
            switch.tables.mac_table.expire(host.mac)

    registry = install_default_auditors(fabric, mode="record").start()
    rng = SeededRng(scenario.seed, "validation/flows")
    dead = set(scenario.dead_hosts)

    senders = []
    qps = []
    for src, dst, message_kb in scenario.flows:
        config_a, config_b = _qp_configs(scenario, mutation)
        qp_a, _qp_b = connect_qp_pair(hosts[src], hosts[dst], rng, config_a, config_b)
        flow = FlowOutcome(src, dst, message_kb)
        flow.dead_dst = dst in dead
        five_tuple = (hosts[src].ip, hosts[dst].ip, IPPROTO_UDP, qp_a.src_udp_port, ROCEV2_UDP_PORT)
        if scenario.kind != "deadlock":
            flow.path = [link_id for link_id, _rate in
                         trace_flow_path(hosts[src], hosts[dst], five_tuple)]
        outcome.flows.append(flow)
        qps.append(qp_a)
        senders.append(
            ClosedLoopSender(RdmaChannel(qp_a), message_kb * KB, pipeline_depth=4)
        )

    if scenario.kind != "deadlock":
        paths = [
            trace_flow_path(hosts[src], hosts[dst], (hosts[src].ip, hosts[dst].ip,
                                                     IPPROTO_UDP, qp.src_udp_port,
                                                     ROCEV2_UDP_PORT))
            for (src, dst, _kb), qp in zip(scenario.flows, qps)
        ]
        shares, uniform, bottlenecks = expected_allocation(paths)
        for flow, share, bottleneck in zip(outcome.flows, shares, bottlenecks):
            flow.share_bps = share
            flow.uniform_bps = uniform
            flow.bottleneck_bps = bottleneck

    for sender in senders:
        sender.start()

    # Measurement window: snapshot the cumulative-ack pointer at both
    # edges; una advances once per acknowledged packet and (unlike
    # message completions) has no per-message quantization.
    t0 = sim.now + scenario.warmup_us * US
    t1 = t0 + scenario.measure_us * US
    window_start = [None] * len(qps)

    def snapshot():
        for i, qp in enumerate(qps):
            window_start[i] = qp.una

    sim.at(t0, snapshot)
    sim.run(until=t1)
    outcome.measure_window_ns = t1 - t0
    for flow, qp, una0 in zip(outcome.flows, qps, window_start):
        # Go-back-0 rewinds una by design; a livelocked flow reads ~0.
        acked_packets = max(0, qp.una - una0)
        flow.measured_bps = acked_packets * MTU_PAYLOAD * 8e9 / outcome.measure_window_ns

    # Stop posting and drain: every posted message must complete and the
    # fabric must empty.  A fabric that cannot drain is deadlocked.
    for sender in senders:
        sender.stop()
    live_senders = [
        sender for sender, flow in zip(senders, outcome.flows) if not flow.dead_dst
    ]
    completed_at_stop = [s.completed_messages for s in live_senders]
    deadline = sim.now + scenario.drain_ms * MS
    while sim.now < deadline:
        sim.run(until=min(deadline, sim.now + _DRAIN_CHUNK_NS))
        if all(s.completed_messages == s.posted_messages for s in live_senders):
            break
    sim.run(until=sim.now + _SETTLE_NS)
    outcome.drained = all(
        s.completed_messages == s.posted_messages for s in live_senders
    )
    # Queue emptiness only makes sense once the senders actually went
    # idle: dead-host retransmission loops and slow lossy drains keep
    # legitimate packets in flight.
    outcome.queues_empty = (
        _fabric_empty(fabric)
        if outcome.drained and not scenario.dead_hosts
        else True
    )
    if not outcome.drained and scenario.lossy:
        # Go-back-N through deliberate loss is slow, not wedged: accept a
        # drain where every unfinished sender still completed messages.
        # The go-back-0 livelock stays caught -- it never completes one.
        outcome.drained = all(
            s.completed_messages == s.posted_messages or s.completed_messages > before
            for s, before in zip(live_senders, completed_at_stop)
        )

    registry.audit_now()
    registry.stop()
    outcome.conservation_violations = len(
        registry.violations_in_class(CONSERVATION_INVARIANTS)
    )
    outcome.liveness_violations = (
        registry.violation_count - outcome.conservation_violations
    )
    outcome.tripped = registry.tripped_invariants()
    outcome.audit_summary = registry.summary()

    for flow, sender in zip(outcome.flows, senders):
        flow.posted = sender.posted_messages
        flow.completed = sender.completed_messages
    for switch in fabric.switches:
        for reason, count in switch.counters.drops.items():
            if count:
                outcome.drops[reason] = outcome.drops.get(reason, 0) + count
        outcome.flood_copies += switch.counters.flood_copies
    outcome.pause_frames = fabric.total_pause_frames()

    from repro.validation.oracles import Tolerances, judge_run

    outcome.violations = judge_run(
        outcome, Tolerances if tolerances is None else tolerances
    )
    return outcome


def _qp_configs(scenario, mutation):
    recovery_kwargs = {}
    if mutation == "go-back-0":
        recovery_kwargs["recovery"] = GoBack0()
    if scenario.kind == "deadlock":
        # Senders toward dead hosts must keep the flood pressure on
        # (large window, short RTO) -- same knobs as experiment E2.
        return (
            QpConfig(window_packets=1024, rto_ns=300 * US, **recovery_kwargs),
            QpConfig(window_packets=1024, rto_ns=300 * US),
        )
    if mutation == "go-back-0":
        return QpConfig(**recovery_kwargs), QpConfig(**recovery_kwargs)
    return QpConfig(), QpConfig()


def _fabric_empty(fabric):
    for switch in fabric.switches:
        for port in switch.ports:
            if port.total_queued_packets:
                return False
    for host in fabric.hosts:
        if host.nic.port.total_queued_packets:
            return False
        occupancy, _actual = host.nic.audit_rx_accounting()
        if occupancy:
            return False
    return True

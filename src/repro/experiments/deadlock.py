"""E2 -- the PFC deadlock of figure 4 (paper section 4.2).

The exact scenario: S1 (under T0) sends to S3 and S5 (under T1) via La;
S4 (under T1) sends to S2 (under T0) via Lb; S6 (under T0) adds incast
pressure on S5.  S2 and S3 are dead -- their MAC-table entries have
expired while their ARP entries survive -- so packets to them are
*flooded*, including onto the routed uplinks where they sit in the
egress queue (to be dropped only at the head).  The resulting pause loop
T1.p3 -> La.p1, La.p0 -> T0.p2, T0.p3 -> Lb.p0, Lb.p1 -> T1.p4 deadlocks
all four switches, and "once the deadlock occurs, it does not go away
even if we restart all the servers".

The paper's fix (option 3): drop lossless packets whose ARP entry is
incomplete.  Same scenario, no deadlock, and the healthy S5 flows keep
completing.
"""

from repro.core.deadlock import detect_deadlock
from repro.rdma.qp import QpConfig
from repro.rdma.verbs import connect_qp_pair
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS, US
from repro.switch.buffer import BufferConfig
from repro.topo import deadlock_quad
from repro.workloads import ClosedLoopSender, RdmaChannel
from repro.experiments.common import run_under_audit
from repro.experiments.result import ExperimentResult


class DeadlockResult(ExperimentResult):
    title = "E2: PFC deadlock, figure 4 (section 4.2)"


def _aggressive_qp_config():
    """Senders to dead hosts must keep the pressure on: a large window
    and a short RTO so retransmission passes keep the floods coming."""
    return QpConfig(window_packets=1024, rto_ns=300 * US)


def _run_scenario(drop_on_incomplete_arp, duration_ns, seed):
    topo = deadlock_quad(
        seed=seed,
        buffer_config=BufferConfig(
            alpha=None, xoff_static_bytes=96 * KB, headroom_per_pg_bytes=40 * KB
        ),
        forwarding_kwargs={
            "drop_lossless_on_incomplete_arp": drop_on_incomplete_arp
        },
    ).boot()
    sim = topo.sim
    # In record mode the auditors double as a deadlock detector: the
    # flooding scenario trips pause-bounded/queue-age, the fixed one
    # stays clean.  Stopped before the every-server-dies persistence
    # phase, where wedged queues are the asserted outcome everywhere.
    registry = run_under_audit(topo.fabric)
    rng = SeededRng(seed, "deadlock")
    hosts = topo.hosts

    # S3 and S2 die; their MAC entries age out (admin-expired here, since
    # simulating 5 idle minutes adds nothing), their ARP entries survive.
    hosts["S3"].die()
    hosts["S2"].die()
    topo.t1.tables.mac_table.expire(hosts["S3"].mac)
    topo.t0.tables.mac_table.expire(hosts["S2"].mac)

    def saturate(src, dst):
        qp, _peer = connect_qp_pair(
            hosts[src],
            hosts[dst],
            rng,
            config_a=_aggressive_qp_config(),
            config_b=_aggressive_qp_config(),
        )
        return ClosedLoopSender(RdmaChannel(qp), 1 * MB).start()

    # Purple must carry enough volume that the flood copies stuck at
    # T1's paused Lb-uplink alone hold the ingress PG above XON -- that
    # is what makes the paper's deadlock survive a server restart.
    saturate("S1", "S3")  # purple: flooded at T1
    saturate("S6", "S3")  # more purple from T0's side
    healthy = saturate("S1", "S5")  # black: incast component via La
    saturate("S7", "S5")  # T1-local incast: oversubscribes the S5 port
    saturate("S4", "S2")  # blue: flooded at T0

    sim.run(until=sim.now + duration_ns)
    switches = [topo.t0, topo.t1, topo.la, topo.lb]
    report = detect_deadlock(switches)
    healthy_before_stop = healthy.completed_messages
    invariant_violations = registry.violation_count
    registry.stop()

    # "it does not go away even if we restart all the servers": silence
    # every sender and give the fabric ample time to drain.
    for host in hosts.values():
        host.die()
    sim.run(until=sim.now + duration_ns)
    report_after = detect_deadlock(switches)

    return {
        "scenario": "arp-drop-fix" if drop_on_incomplete_arp else "flooding",
        "deadlocked": report.deadlocked,
        "persists_after_restart": report_after.deadlocked,
        "switches_in_cycle": len(report.involved_switches()),
        "pause_frames": sum(s.pause_frames_sent() for s in switches),
        "flood_events": sum(s.counters.flood_events for s in switches),
        "incomplete_arp_drops": sum(
            s.tables.incomplete_arp_drops for s in switches
        ),
        "healthy_flow_messages": healthy_before_stop,
        "invariant_violations": invariant_violations,
    }


#: The fabric and QP seed.  The rows are the same at every seed (seeds
#: 1-3 checked), so the runner sweeps none.
_SEED = 1


def run_deadlock(duration_ns=8 * MS):
    """Reproduce figure 4 and its fix."""
    rows = [
        _run_scenario(False, duration_ns, _SEED),
        _run_scenario(True, duration_ns, _SEED),
    ]
    return DeadlockResult(rows)


def claims(rows):
    """Figure 4: flooding + PFC forms a pause loop across T0, La, T1, Lb
    that outlives a restart of every server; dropping lossless packets
    on incomplete ARP entries prevents it."""
    by_scenario = {r["scenario"]: r for r in rows}
    flooding = by_scenario["flooding"]
    fixed = by_scenario["arp-drop-fix"]
    return [
        ("flooding deadlocks", flooding["deadlocked"]),
        ("the deadlock persists after restart", flooding["persists_after_restart"]),
        ("the pause cycle spans 4 switches", flooding["switches_in_cycle"] == 4),
        ("the ARP-drop fix does not deadlock", not fixed["deadlocked"]),
        ("the fix drops on incomplete ARP", fixed["incomplete_arp_drops"] > 0),
        # The healthy flow makes more progress once flooding cannot jam
        # the fabric.
        ("the healthy flow gains with the fix",
         fixed["healthy_flow_messages"] > flooding["healthy_flow_messages"]),
    ]

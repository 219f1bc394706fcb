#!/usr/bin/env python
"""The operations story (paper section 5): configure, monitor, catch drift.

Builds a two-tier fabric, deploys DSCP-based PFC with the paper's full
safety profile, then walks the management loop:

1. declare the desired configuration and verify fleet compliance;
2. inject the section 6.2 misconfiguration (a new switch model running
   alpha = 1/64) and catch it as drift;
3. run RDMA Pingmesh continuously and read fleet latency percentiles;
4. read the PFC counters (pause frames and pause intervals).

Run:  python examples/fabric_operations.py
"""

from repro.core import DscpPfcDesign, paper_safe_profile
from repro.faults import install_default_auditors
from repro.monitoring import ConfigMonitor, DesiredConfig, Pingmesh
from repro.monitoring.counters import host_counters, switch_counters
from repro.rdma import connect_qp_pair
from repro.sim import SeededRng
from repro.sim.units import KB, MS, US
from repro.switch.buffer import BufferConfig
from repro.topo import two_tier
from repro.workloads import ClosedLoopSender, RdmaChannel


def main():
    design = DscpPfcDesign(lossless_priorities=(3, 4))
    profile = paper_safe_profile()
    topo = two_tier(
        n_tors=2,
        hosts_per_tor=4,
        n_leaves=2,
        seed=9,
        pfc_config=design.pfc_config(),
        buffer_config=profile.buffer_config(),
        forwarding_kwargs=profile.forwarding_kwargs(),
    ).boot()
    profile.apply_to_topology(topo)
    sim, fabric = topo.sim, topo.fabric
    rng = SeededRng(9, "ops")
    # A healthy operated fabric holds every runtime invariant; strict
    # mode turns any regression into an immediate failure.
    audit = install_default_auditors(fabric, mode="raise").start()

    desired = DesiredConfig.from_design(design, buffer_alpha=profile.buffer_alpha)
    monitor = ConfigMonitor(desired)
    print("1. Compliance check after deployment: %d drift(s)"
          % len(monitor.check_fabric(fabric)))

    # The section 6.2 incident: a new switch model with a silent default.
    topo.tors[1].buffer_config = BufferConfig(alpha=1.0 / 64)
    drifts = monitor.check_fabric(fabric)
    print("2. After onboarding a new switch model : %d drift(s)" % len(drifts))
    for drift in drifts:
        print("     %r" % drift)
    topo.tors[1].buffer_config = profile.buffer_config()  # remediate

    # Background service load + Pingmesh.
    t0_hosts, t1_hosts = topo.hosts_by_tor
    for i in range(2):
        qp, _ = connect_qp_pair(t0_hosts[i], t1_hosts[i], rng)
        ClosedLoopSender(RdmaChannel(qp), 256 * KB).start()
    pingmesh = Pingmesh(sim, rng.child("pm"), interval_ns=1 * MS)
    pingmesh.add_pair(t0_hosts[3], t1_hosts[3])
    pingmesh.start()
    sim.run(until=sim.now + 40 * MS)
    pingmesh.stop()

    print("3. Pingmesh over 40 ms of production-like load:")
    print("     probes  : %d (error rate %.1f%%)"
          % (len(pingmesh.results), 100 * pingmesh.error_rate()))
    print("     RTT p50 : %6.1f us" % pingmesh.rtt_percentile_us(50))
    print("     RTT p99 : %6.1f us" % pingmesh.rtt_percentile_us(99))

    print("4. PFC counters (cumulative):")
    pause_tx = [(s.name, switch_counters(s)["pause_tx"]) for s in fabric.switches]
    pause_tx += [(h.name, host_counters(h)["pause_tx"]) for h in fabric.hosts]
    for device, pauses in pause_tx:
        if pauses:
            print("     %-8s sent %5d pause frames" % (device, pauses))
    host = t1_hosts[0]
    print("     %-8s cumulative paused interval: %.1f us"
          % (host.name, host.nic.port.paused_interval_ns() / US))
    print("     fabric-wide drops: %d (lossless holding)" % fabric.total_drops())
    print("5. Runtime invariants: %s" % audit.summary())
    assert audit.clean, audit.summary()


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Section 4.3 live: a NIC PFC pause storm, traced and contained.

One server's NIC receive pipeline dies while its pause generator keeps
running -- the exact bug behind the paper's production incident (figure
9).  The demo shows the monitoring story end to end:

1. a telemetry session polls every switch and server each millisecond
   and catches the servers starved by pause frames (``victim_flow``);
2. its ``pause_storm`` incident names the single origin server;
3. with the NIC and switch watchdogs armed, the same fault is confined
   to the victim instead of freezing the fabric.

Run:  python examples/storm_watchdogs.py
"""

from repro.faults import install_default_auditors
from repro.nic.nic import NicConfig, NicWatchdogConfig
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS
from repro.switch.buffer import BufferConfig
from repro.switch.watchdog import SwitchWatchdogConfig
from repro.telemetry import TelemetrySession
from repro.topo import three_tier_clos
from repro.experiments.common import saturate_pairs


def run(watchdogs):
    poll = MS // 2
    topo = three_tier_clos(
        n_podsets=2, tors_per_podset=2, hosts_per_tor=2,
        leaves_per_podset=2, n_spines=2, seed=5,
        nic_config=NicConfig(
            watchdog_config=NicWatchdogConfig(
                stall_threshold_ns=2 * MS, poll_interval_ns=poll, enabled=watchdogs
            )
        ),
        buffer_config=BufferConfig(alpha=None, xoff_static_bytes=96 * KB),
    ).boot()
    if watchdogs:
        for podset in topo.podsets:
            for tor in podset["tors"]:
                tor.enable_storm_watchdog(
                    SwitchWatchdogConfig(poll_interval_ns=poll, reenable_after_ns=4 * MS)
                )
    sim = topo.sim
    # Pause-liveness bound above the watchdog reaction time: with
    # watchdogs armed every pause must clear inside it; without them the
    # storm trips the auditors -- the asymmetry the demo is about.
    audit = install_default_auditors(topo.fabric, max_stall_ns=3 * MS).start()
    rng = SeededRng(5, "storm-demo")
    hosts = topo.hosts
    victim = hosts[0]
    pairs = [(hosts[4], victim), (hosts[6], victim), (hosts[2], victim)]
    pairs += [(hosts[1], hosts[5]), (hosts[5], hosts[1]), (hosts[3], hosts[7]), (hosts[7], hosts[3])]
    senders = saturate_pairs(sim, pairs, 1 * MB, rng)
    session = TelemetrySession(topo.fabric).start()

    sim.run(until=sim.now + 2 * MS)  # healthy baseline
    victim.nic.break_rx_pipeline()
    sim.run(until=sim.now + 6 * MS)
    before = [s.completed_bytes for s in senders]
    sim.run(until=sim.now + 2 * MS)
    window = [(s.completed_bytes - b) * 8.0 / (2 * MS) for s, b in zip(senders, before)]
    session.stop()

    storms = [i for i in session.incidents if i.kind == "pause_storm"]
    return {
        "goodput": sum(window),
        "blocked": sum(1 for g in window if g < 0.1),
        "flows": len(senders),
        "broken": victim.nic.name,
        "origins": sorted({i.device for i in storms}),
        "storm_windows": sum(i.details["windows"] for i in storms),
        "victims": sum(1 for i in session.incidents if i.kind == "victim_flow"),
        "nic_tripped": victim.nic.watchdog_trips,
        "audit": audit.summary(),
        "audit_clean": audit.clean,
    }


def main():
    for watchdogs in (False, True):
        r = run(watchdogs)
        print("watchdogs %-3s: %d/%d flows blocked, aggregate %.1f Gb/s"
              % ("on" if watchdogs else "off", r["blocked"], r["flows"], r["goodput"]))
        print("              pause_storm incident traced origin -> %s over %d windows "
              "(%d servers starved by it, NIC watchdog trips: %d)"
              % (", ".join(r["origins"]), r["storm_windows"], r["victims"],
                 r["nic_tripped"]))
        assert r["origins"] == [r["broken"]], r["origins"]
        print("              invariant auditors: %s" % r["audit"])
        if watchdogs:
            assert r["audit_clean"], r["audit"]
        else:
            assert not r["audit_clean"], "an unchecked storm must trip the auditors"
    print(
        "\nWithout watchdogs one broken NIC freezes every flow in the"
        "\nfabric; with the paper's two watchdogs only the victim's own"
        "\nflows are lost, and monitoring pinpoints the culprit server."
    )


if __name__ == "__main__":
    main()

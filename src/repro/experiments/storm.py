"""E3 -- the NIC PFC pause frame storm (paper section 4.3, figures 5
and 9).

One server's NIC receive pipeline dies while the NIC keeps generating
pause frames.  Without watchdogs the pauses cascade: ToR -> Leaves ->
Spines -> other Leaves -> other ToRs -> every server; "a single
malfunctioning NIC may block the entire network".  The NIC-side and
switch-side watchdogs confine the damage to the victim.

Timescales are compressed (the production watchdog constants of 100 ms /
200 ms poll at the same *ratios* here) so the packet-level run stays
tractable; the dynamics are unchanged.
"""

from repro.sim import SeededRng
from repro.sim.units import MB, MS, US
from repro.nic.nic import NicConfig, NicWatchdogConfig
from repro.switch.buffer import BufferConfig
from repro.switch.watchdog import SwitchWatchdogConfig
from repro.sim.units import KB
from repro.topo import three_tier_clos
from repro.experiments.common import run_under_audit, saturate_pairs
from repro.experiments.result import ExperimentResult


class StormResult(ExperimentResult):
    title = "E3: NIC PFC pause frame storm (section 4.3)"


def _build(watchdogs, seed, nic_watchdog_ns, switch_reenable_ns, poll_ns):
    nic_config = NicConfig(
        watchdog_config=NicWatchdogConfig(
            stall_threshold_ns=nic_watchdog_ns,
            poll_interval_ns=poll_ns,
            enabled=watchdogs,
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
    ).boot()
    if watchdogs:
        for podset in topo.podsets:
            for tor in podset["tors"]:
                tor.enable_storm_watchdog(
                    SwitchWatchdogConfig(
                        poll_interval_ns=poll_ns, reenable_after_ns=switch_reenable_ns
                    )
                )
    return topo


def _goodput_window(senders, sim, window_ns):
    before = [s.completed_bytes for s in senders]
    sim.run(until=sim.now + window_ns)
    after = [s.completed_bytes for s in senders]
    return [(b - a) * 8.0 / window_ns for a, b in zip(before, after)]  # Gb/s each


def _run_scenario(watchdogs, seed):
    poll_ns = int(0.5 * MS)
    nic_watchdog_ns = 2 * MS
    switch_reenable_ns = 4 * MS
    topo = _build(watchdogs, seed, nic_watchdog_ns, switch_reenable_ns, poll_ns)
    sim = topo.sim
    # Pause liveness bound sits above the watchdog reaction time: with
    # watchdogs on, every pause must resolve inside it (zero violations);
    # with them off the storm trips the auditors -- that asymmetry is the
    # row's point.
    registry = run_under_audit(topo.fabric, max_stall_ns=3 * MS)
    rng = SeededRng(seed, "storm")
    hosts = topo.hosts
    # hosts order: P0T0-S0, P0T0-S1, P0T1-S0, P0T1-S1, then podset 1.
    victim = hosts[0]
    # The victim is a busy server (figure 5's premise): fan-in from
    # several ToRs keeps victim-bound traffic on every spine path, so
    # the pause cascade poisons the whole fabric.
    pairs = [(hosts[4], victim), (hosts[6], victim), (hosts[2], victim)]
    # Innocent background flows, cross-podset both ways.
    pairs += [
        (hosts[1], hosts[5]),
        (hosts[5], hosts[1]),
        (hosts[3], hosts[7]),
        (hosts[7], hosts[3]),
    ]
    senders = saturate_pairs(sim, pairs, 1 * MB, rng)

    baseline = _goodput_window(senders, sim, 2 * MS)
    victim_nic = victim.nic
    victim_nic.break_rx_pipeline()
    sim.run(until=sim.now + 4 * MS)  # let the storm develop / watchdogs act
    during = _goodput_window(senders, sim, 2 * MS)

    blocked = sum(
        1
        for base, now in zip(baseline, during)
        if base > 0.5 and now < 0.1 * base
    )
    pause_rx_per_host = [h.nic.port.stats.pause_rx for h in hosts]
    return {
        "watchdogs": "on" if watchdogs else "off",
        "baseline_gbps_total": sum(baseline),
        "storm_gbps_total": sum(during),
        "flows_blocked": blocked,
        "flows_total": len(senders),
        "victim_pauses_sent": victim_nic.stats.pause_generated,
        "hosts_receiving_pauses": sum(1 for c in pause_rx_per_host if c > 0),
        "nic_watchdog_tripped": victim_nic.watchdog_trips,
        "switch_watchdog_trips": sum(
            sum(w.trips for w in tor._watchdogs.values())
            for podset in topo.podsets
            for tor in podset["tors"]
        ),
        "invariant_violations": registry.violation_count,
    }


def run_storm(seed=1):
    """Reproduce the PFC storm and its watchdog containment."""
    rows = [_run_scenario(False, seed), _run_scenario(True, seed)]
    return StormResult(rows)


def claims(rows):
    """Figures 5 and 9: one malfunctioning NIC blocks the whole fabric;
    the NIC-side and switch-side watchdogs confine the damage to the
    victim."""
    by_mode = {r["watchdogs"]: r for r in rows}
    off = by_mode["off"]
    on = by_mode["on"]
    return [
        # Unprotected: the storm blocks (essentially) everything.
        ("off: every flow is blocked", off["flows_blocked"] == off["flows_total"]),
        ("off: goodput < 5% of baseline",
         off["storm_gbps_total"] < 0.05 * off["baseline_gbps_total"]),
        # Watchdogs: only the victim's flows suffer; the fabric keeps moving.
        ("on: the NIC watchdog trips", on["nic_watchdog_tripped"] >= 1),
        ("on: a switch watchdog trips", on["switch_watchdog_trips"] >= 1),
        ("on: at most 3 flows blocked", on["flows_blocked"] <= 3),
        ("on: goodput > 50% of baseline",
         on["storm_gbps_total"] > 0.5 * on["baseline_gbps_total"]),
    ]

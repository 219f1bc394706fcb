"""Fault injection + runtime invariant auditors.

The `faults` lane: every section 4 pathology expressed as a declarative
:class:`FaultPlan` run under the invariant auditors, plus unit coverage
of the injector mechanisms and auditor self-tests (an auditor that can
never fire is worse than none -- each one is shown to catch a seeded
corruption).

Run alone with ``pytest -m faults``.
"""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    InvariantViolation,
    install_default_auditors,
)
from repro.monitoring.config_mgmt import ConfigMonitor, DesiredConfig
from repro.nic.nic import NicConfig, NicWatchdogConfig
from repro.rdma import QpConfig, connect_qp_pair
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS, US
from repro.switch.buffer import BufferConfig
from repro.switch.pfc import PfcConfig
from repro.topo import deadlock_quad, single_switch
from repro.workloads import ClosedLoopSender, RdmaChannel
from tests.strategies import drive_incast as _incast

pytestmark = pytest.mark.faults


# --- injector mechanisms ------------------------------------------------------


class TestInjector:
    def test_flap_restores_link_and_counts_once(self):
        topo = single_switch(n_hosts=2, seed=3).boot()
        injector = FaultInjector(topo.fabric)
        link = injector.flap_link(("S0", "T0"), down_ns=200 * US)
        assert not link.up
        topo.sim.run(until=topo.sim.now + 500 * US)
        assert link.up
        assert link.flaps == 1

    def test_resolve_link_accepts_host_or_nic_names(self):
        topo = single_switch(n_hosts=2, seed=3).boot()
        injector = FaultInjector(topo.fabric)
        by_host = injector.resolve_link(("S1", "T0"))
        by_nic = injector.resolve_link(("S1.nic", "T0"))
        assert by_host is by_nic
        with pytest.raises(KeyError):
            injector.resolve_link(("S0", "S1"))  # hosts share no link

    def test_drop_rule_hits_are_seed_deterministic(self):
        def run(seed):
            topo = single_switch(n_hosts=2, seed=5).boot()
            injector = FaultInjector(topo.fabric, rng=SeededRng(seed, "inj"))
            rule = injector.drop_packets(("S0", "T0"), probability=0.05, match="data")
            _incast(topo, 1, SeededRng(5, "traffic"))
            topo.sim.run(until=topo.sim.now + 2 * MS)
            link = injector.resolve_link(("S0", "T0"))
            return rule.hits, link.injected_drops

        first = run(11)
        assert first == run(11)
        assert first[0] > 0
        assert first != run(12)

    def test_corrupt_counts_separately_from_drops(self):
        topo = single_switch(n_hosts=2, seed=5).boot()
        injector = FaultInjector(topo.fabric)
        injector.corrupt_packets(("S0", "T0"), probability=1.0, match="data", count=5)
        _incast(topo, 1, SeededRng(5, "traffic"))
        topo.sim.run(until=topo.sim.now + 2 * MS)
        link = injector.resolve_link(("S0", "T0"))
        assert link.corrupted == 5
        assert link.injected_drops == 0

    def test_reorder_delays_matching_frames(self):
        topo = single_switch(n_hosts=2, seed=5).boot()
        injector = FaultInjector(topo.fabric)
        injector.reorder_packets(("S0", "T0"), delay_ns=5000, probability=0.1)
        _incast(topo, 1, SeededRng(5, "traffic"))
        topo.sim.run(until=topo.sim.now + 2 * MS)
        assert injector.resolve_link(("S0", "T0")).reordered > 0

    def test_count_limited_rule_exhausts(self):
        topo = single_switch(n_hosts=2, seed=5).boot()
        injector = FaultInjector(topo.fabric)
        rule = injector.drop_packets(("S0", "T0"), match="data", count=3)
        _incast(topo, 1, SeededRng(5, "traffic"))
        topo.sim.run(until=topo.sim.now + 2 * MS)
        assert rule.hits == 3
        assert rule.remaining == 0

    def test_unknown_matcher_rejected(self):
        topo = single_switch(n_hosts=2, seed=3).boot()
        injector = FaultInjector(topo.fabric)
        with pytest.raises(ValueError):
            injector.drop_packets(("S0", "T0"), match="everything")

    def test_clear_link_faults_removes_rules(self):
        topo = single_switch(n_hosts=2, seed=5).boot()
        injector = FaultInjector(topo.fabric)
        injector.drop_packets(("S0", "T0"), match="data")
        link = injector.clear_link_faults(("S0", "T0"))
        assert link.fault_hook is None
        _incast(topo, 1, SeededRng(5, "traffic"))
        topo.sim.run(until=topo.sim.now + 1 * MS)
        assert link.injected_drops == 0

    def test_injector_log_records_actions_with_times(self):
        topo = single_switch(n_hosts=2, seed=3).boot()
        injector = FaultInjector(topo.fabric)
        injector.freeze_nic_rx("S0")
        topo.sim.run(until=topo.sim.now + 1 * MS)
        injector.repair_nic("S0")
        actions = [(action, subject) for _t, action, subject in injector.log]
        assert actions == [("freeze_nic_rx", "S0"), ("repair_nic", "S0")]
        assert injector.log[1][0] > injector.log[0][0]

    def test_plan_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            FaultPlan("bad").add("set_on_fire", "T0")


# --- auditors: clean runs and self-tests --------------------------------------


class TestAuditors:
    def test_fault_free_incast_is_clean_under_strict_audit(self):
        topo = single_switch(
            n_hosts=4,
            seed=7,
            buffer_config=BufferConfig(alpha=None, xoff_static_bytes=48 * KB),
        ).boot()
        registry = install_default_auditors(topo.fabric, mode="raise").start()
        _incast(topo, 3, SeededRng(7, "clean"))
        topo.sim.run(until=topo.sim.now + 3 * MS)  # raises on any violation
        assert registry.ticks >= 25
        assert registry.clean

    def test_buffer_auditor_catches_phantom_admission(self):
        # Self-test: account bytes the queues do not hold.
        topo = single_switch(n_hosts=2, seed=7).boot()
        registry = install_default_auditors(topo.fabric)
        assert registry.audit_now() == []
        topo.tor.buffer.admit(0, 3, 1000, lossless=True)
        violations = registry.audit_now()
        assert registry.violations_for("buffer-conservation")
        assert any("1000B" in v.detail or "1000" in v.detail for v in violations)

    def test_nic_auditor_catches_counter_tamper(self):
        topo = single_switch(n_hosts=2, seed=7).boot()
        registry = install_default_auditors(topo.fabric)
        topo.hosts[0].nic._rx_bytes += 64
        registry.audit_now()
        assert registry.violations_for("nic-rx-conservation")

    def test_tx_ready_auditor_catches_a_lost_wakeup(self):
        # A source that gains work without telling its NIC is never
        # probed again; the auditor asks it directly and names it.
        from repro.rdma import post_send

        topo = single_switch(n_hosts=2, seed=7).boot()
        registry = install_default_auditors(topo.fabric)
        a, b = topo.hosts
        qp, _ = connect_qp_pair(a, b, SeededRng(7, "lost-wakeup"))
        topo.sim.run(until=topo.sim.now + 10 * US)
        assert registry.audit_now() == []
        a.nic.notify_tx_ready = lambda source: None  # the dropped notify
        wr = post_send(qp, 4 * KB)
        del a.nic.notify_tx_ready
        topo.sim.run(until=topo.sim.now + 1 * MS)
        assert not wr.completed and qp.stats.data_packets_sent == 0
        violations = registry.audit_now()
        assert [v.invariant for v in violations] == ["nic-tx-ready"]
        assert violations[0].subject == a.nic.name
        assert repr(qp) in violations[0].detail
        # Any later notify heals it.
        a.nic.notify_tx_ready(qp)
        topo.sim.run(until=topo.sim.now + 1 * MS)
        assert wr.completed
        assert registry.audit_now() == []

    def test_tx_ready_auditor_is_clean_on_a_dead_host_with_work(self):
        from repro.rdma import post_send

        topo = single_switch(n_hosts=2, seed=7).boot()
        registry = install_default_auditors(topo.fabric)
        a, b = topo.hosts
        qp, _ = connect_qp_pair(a, b, SeededRng(7, "dead"))
        a.die()
        post_send(qp, 4 * KB)
        registry.audit_now()
        assert not registry.violations_for("nic-tx-ready")

    def test_raise_mode_raises_on_first_violation(self):
        topo = single_switch(n_hosts=2, seed=7).boot()
        registry = install_default_auditors(topo.fabric, mode="raise")
        topo.tor.buffer.admit(0, 3, 1000, lossless=True)
        with pytest.raises(InvariantViolation):
            registry.audit_now()

    def test_audit_never_perturbs_model_state(self):
        # The same traffic with and without auditors must produce
        # identical model counters (the tick reads, never writes).
        def model_digest(audited):
            topo = single_switch(n_hosts=3, seed=9).boot()
            if audited:
                install_default_auditors(topo.fabric).start()
            rng = SeededRng(9, "noperturb")
            victim = topo.hosts[0]
            qps = []
            for src in topo.hosts[1:]:
                qp, _ = connect_qp_pair(src, victim, rng)
                qps.append(qp)
                ClosedLoopSender(RdmaChannel(qp), 128 * KB).start()
            topo.sim.run(until=topo.sim.now + 3 * MS)
            return (
                topo.tor.pause_frames_sent(),
                tuple(qp.stats.data_packets_sent for qp in qps),
                tuple(qp.stats.bytes_completed for qp in qps),
                topo.tor.buffer.peak_shared_in_use,
            )

        assert model_digest(audited=True) == model_digest(audited=False)


# --- the section 4 pathologies as declarative plans ---------------------------


def _run_plan(topo, plan, drive, duration_ns=8 * MS, max_stall_ns=2 * MS):
    """Audit, arm ``plan``, drive traffic and run ``duration_ns``; returns
    the auditor registry after one final sweep at the horizon."""
    registry = install_default_auditors(topo.fabric, max_stall_ns=max_stall_ns).start()
    plan.apply(topo.fabric)
    drive(topo)
    topo.sim.run(until=topo.sim.now + duration_ns)
    registry.audit_now()
    registry.stop()
    return registry


def _storm_fabric(watchdog):
    return single_switch(
        n_hosts=3,
        seed=13,
        nic_config=NicConfig(watchdog_config=watchdog),
        buffer_config=BufferConfig(alpha=None, xoff_static_bytes=48 * KB),
    ).boot()


def _storm_drive(topo):
    _incast(topo, 2, SeededRng(13, "storm"))


class TestPathologyScenarios:
    def test_pause_storm_without_watchdog_trips_pause_liveness(self):
        topo = _storm_fabric(NicWatchdogConfig(enabled=False))
        registry = _run_plan(
            topo, FaultPlan("storm", seed=13).freeze_nic_rx("S0", at_ns=1 * MS), _storm_drive
        )
        assert registry.violations_for("pause-bounded")
        # the victim NIC is still pouring pauses
        assert topo.fabric.host_named("S0").nic.stats.pause_generated > 10

    def test_pause_storm_with_nic_watchdog_stays_clean(self):
        topo = _storm_fabric(
            NicWatchdogConfig(stall_threshold_ns=1 * MS, poll_interval_ns=250 * US)
        )
        registry = _run_plan(
            topo,
            FaultPlan("storm-wd", seed=13).freeze_nic_rx("S0", at_ns=1 * MS),
            _storm_drive,
            max_stall_ns=3 * MS,  # liveness bound above the watchdog's reaction
        )
        assert registry.clean, registry.summary()
        assert sum(h.nic.watchdog_trips for h in topo.fabric.hosts) >= 1

    def _deadlock_scenario(self, fixed):
        def build():
            return deadlock_quad(
                seed=11,
                buffer_config=BufferConfig(
                    alpha=None,
                    xoff_static_bytes=96 * KB,
                    headroom_per_pg_bytes=40 * KB,
                ),
                forwarding_kwargs={"drop_lossless_on_incomplete_arp": fixed},
            ).boot()

        def drive(topo):
            rng = SeededRng(11, "dl")
            hosts = topo.hosts

            def saturate(src, dst):
                config = QpConfig(window_packets=1024, rto_ns=300 * US)
                qp, _ = connect_qp_pair(
                    hosts[src], hosts[dst], rng, config_a=config, config_b=config
                )
                ClosedLoopSender(RdmaChannel(qp), 1 * MB).start()

            saturate("S1", "S3")
            saturate("S6", "S3")
            saturate("S1", "S5")
            saturate("S7", "S5")
            saturate("S4", "S2")

        # Figure 4 as data: the dead servers and their half-expired
        # forwarding state are plan entries, not bespoke setup code.
        after_boot = 100 * US + 1
        plan = (
            FaultPlan("figure4", seed=11)
            .kill_host("S3", at_ns=after_boot)
            .kill_host("S2", at_ns=after_boot)
            .expire_mac("S3", at_ns=after_boot)
            .expire_mac("S2", at_ns=after_boot)
        )
        return plan, build, drive

    def test_deadlock_plan_floods_into_a_pause_loop(self):
        from repro.core.deadlock import detect_deadlock

        plan, build, drive = self._deadlock_scenario(fixed=False)
        topo = build()
        registry = _run_plan(topo, plan, drive)
        assert registry.violations_for("pause-bounded")
        assert detect_deadlock([topo.t0, topo.t1, topo.la, topo.lb]).deadlocked

    def test_deadlock_plan_with_arp_drop_fix_stays_clean(self):
        from repro.core.deadlock import detect_deadlock

        plan, build, drive = self._deadlock_scenario(fixed=True)
        topo = build()
        registry = _run_plan(topo, plan, drive)
        assert registry.clean, registry.summary()
        assert not detect_deadlock([topo.t0, topo.t1, topo.la, topo.lb]).deadlocked

    def test_slow_receiver_backpressures_but_breaks_nothing(self):
        topo = single_switch(
            n_hosts=4,
            seed=17,
            buffer_config=BufferConfig(alpha=None, xoff_static_bytes=48 * KB),
        ).boot()
        registry = _run_plan(
            topo,
            FaultPlan("slowrx", seed=17).degrade_mtt(
                "S0", at_ns=2 * MS, entries=32, miss_penalty_ns=4000
            ),
            lambda topo: _incast(topo, 3, SeededRng(17, "slowrx")),
        )
        assert registry.clean, registry.summary()
        victim = topo.fabric.host_named("S0").nic
        assert victim.stats.pause_generated > 0  # the degraded NIC paused its switch
        assert victim.mtt.misses > 0  # the MTT actually thrashed


# --- an unscripted combination ------------------------------------------------


class TestConfigDriftCombos:
    def test_dscp_drift_plus_link_flap_completes_under_audit(self):
        # Not one of the paper's four pathologies: a switch drifts onto a
        # wrong DSCP->queue map *and* a server link flaps mid-run.  The
        # run must simply complete with buffer/rx conservation intact,
        # and the config monitor must localize the drift.
        desired_map = {24: 3, 46: 4}
        topo = single_switch(
            n_hosts=3,
            seed=19,
            pfc_config=PfcConfig(dscp_to_priority=dict(desired_map)),
        ).boot()
        registry = install_default_auditors(topo.fabric).start()
        plan = (
            FaultPlan("drift+flap", seed=19)
            .drift_dscp_map("T0", {24: 0, 46: 0}, at_ns=1 * MS)
            .flap_link(("S1", "T0"), at_ns=2 * MS, down_ns=200 * US)
        )
        plan.apply(topo.fabric)
        _incast(topo, 2, SeededRng(19, "combo"))
        topo.sim.run(until=topo.sim.now + 6 * MS)

        assert not registry.violations_for("buffer-conservation")
        assert not registry.violations_for("nic-rx-conservation")
        assert not registry.violations_for("psn-monotonic")

        monitor = ConfigMonitor(
            DesiredConfig(
                priority_mode=topo.tor.pfc_config.priority_mode,
                lossless_priorities=topo.tor.pfc_config.lossless_priorities,
                buffer_alpha=None,
                dscp_to_priority=desired_map,
            )
        )
        drifts = monitor.check_fabric(topo.fabric)
        assert [(d.device, d.field) for d in drifts] == [("T0", "dscp_to_priority")]
        # The shared config object was copied, not mutated in place: the
        # NICs still run the desired map.
        assert all(
            dict(h.nic.pfc_config.dscp_to_priority) == desired_map
            for h in topo.hosts
        )

    def test_buffer_alpha_drift_is_visible_to_the_monitor(self):
        topo = single_switch(n_hosts=2, seed=19).boot()
        injector = FaultInjector(topo.fabric)
        injector.drift_buffer_alpha("T0", 1.0 / 64)
        monitor = ConfigMonitor(
            DesiredConfig(
                priority_mode=topo.tor.pfc_config.priority_mode,
                lossless_priorities=topo.tor.pfc_config.lossless_priorities,
                buffer_alpha=1.0 / 16,
            )
        )
        drifts = monitor.check_switch(topo.tor)
        assert [(d.field, d.running) for d in drifts] == [("buffer_alpha", 1.0 / 64)]
        assert topo.tor.buffer.config.alpha == 1.0 / 64  # live, not just declared

"""Determinism: identical seeds replay bit-for-bit.

The deadlock and livelock experiments depend on exact event
interleavings; the engine promises integer-nanosecond time with FIFO
tie-breaking and per-component seeded RNG streams, so two runs of the
same experiment must put *identical* frames on the wire at identical
times, not merely end with similar statistics.  The check is the gate's
own fingerprint, :class:`repro.bench.digest.WireDigest`.
"""

from repro.bench.digest import WireDigest
from repro.faults import FaultPlan, install_default_auditors
from repro.packets.packet import Packet
from repro.packets.pause import PfcPauseFrame
from repro.rdma import GoBackN, QpConfig, connect_qp_pair, post_send
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS, US
from repro.switch.buffer import BufferConfig
from repro.topo import single_switch
from repro.workloads import ClosedLoopSender, RdmaChannel


def _incast_topo(seed):
    return single_switch(
        n_hosts=4,
        seed=seed,
        buffer_config=BufferConfig(alpha=None, xoff_static_bytes=48 * KB),
    )


def incast_run(seed, after_boot=None, digested=True):
    """A congested 3-to-1 incast; returns ``(topo, wire)`` -- ``wire`` is
    None when ``digested`` is false.  ``after_boot(topo)`` runs between
    boot and traffic."""
    topo = _incast_topo(seed)
    wire = WireDigest(topo.fabric) if digested else None
    topo.boot()
    if after_boot is not None:
        after_boot(topo)
    rng = SeededRng(seed, "det")
    victim = topo.hosts[0]
    for src in topo.hosts[1:]:
        qp, _ = connect_qp_pair(src, victim, rng)
        ClosedLoopSender(RdmaChannel(qp), 256 * KB).start()
    topo.sim.run(until=topo.sim.now + 5 * MS)
    return topo, wire


def lossy_digest(seed):
    """The digest of a loss-recovery run (random losses included)."""
    topo = single_switch(n_hosts=2, seed=seed)
    wire = WireDigest(topo.fabric)
    topo.boot()
    link = topo.fabric.links[0]
    link.loss_rate = 0.01
    link._loss_rng = SeededRng(seed, "loss")
    rng = SeededRng(seed, "det2")
    config = QpConfig(recovery=GoBackN(), rto_ns=200 * US)
    qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], rng, config_a=config, config_b=config)
    post_send(qp, 1 * MB)
    topo.sim.run(until=topo.sim.now + 20 * MS)
    assert link.lost > 0
    return wire.hexdigest()


def faulted_run(seed):
    """A fault-injected, audited run; returns ``(topo, wire, registry)``.

    The fault plan exercises every injector mechanism that could perturb
    event ordering: a standing probabilistic drop rule (its own RNG
    stream), a timed link flap, and a NIC freeze/repair cycle.  Same
    seed + same plan must replay bit-for-bit, auditors included.
    """
    topo = _incast_topo(seed)
    wire = WireDigest(topo.fabric)
    topo.boot()
    registry = install_default_auditors(topo.fabric).start()
    plan = (
        FaultPlan("det-faults", seed=seed)
        .drop(("S1", "T0"), probability=0.02, match="data")
        .flap_link(("S2", "T0"), at_ns=1 * MS, down_ns=150 * US)
        .freeze_nic_rx("S0", at_ns=2 * MS)
        .repair_nic("S0", at_ns=3 * MS)
    )
    plan.apply(topo.fabric)
    rng = SeededRng(seed, "det-faults")
    victim = topo.hosts[0]
    for src in topo.hosts[1:]:
        config = QpConfig(recovery=GoBackN(), rto_ns=300 * US)
        qp, _ = connect_qp_pair(src, victim, rng, config_a=config, config_b=config)
        ClosedLoopSender(RdmaChannel(qp), 256 * KB).start()
    topo.sim.run(until=topo.sim.now + 5 * MS)
    return topo, wire, registry


def _link_counters(topo):
    return [
        (link.delivered, link.lost, link.injected_drops, link.corrupted, link.reordered)
        for link in topo.fabric.links
    ]


class TestDeterminism:
    def test_congested_run_replays_exactly(self):
        assert incast_run(9)[1].hexdigest() == incast_run(9)[1].hexdigest()

    def test_lossy_run_replays_exactly(self):
        assert lossy_digest(17) == lossy_digest(17)

    def test_different_seeds_differ(self):
        assert lossy_digest(17) != lossy_digest(18)

    def test_fault_injected_run_replays_exactly(self):
        topo, wire, registry = faulted_run(23)
        _, again, registry_again = faulted_run(23)
        assert wire.hexdigest() == again.hexdigest()
        assert registry.violation_count == registry_again.violation_count
        # The plan actually did something in the window we digested.
        links = topo.fabric.links
        assert sum(link.injected_drops for link in links) > 0
        assert sum(link.flaps for link in links) == 1

    def test_fault_injected_runs_diverge_across_seeds(self):
        assert faulted_run(23)[1].hexdigest() != faulted_run(24)[1].hexdigest()

    def test_flow_model_is_pure(self):
        from repro.flows import ClosFlowModel

        first = ClosFlowModel(seed=4).run()
        second = ClosFlowModel(seed=4).run()
        assert first.rates_bps == second.rates_bps

    def test_rng_streams_are_component_isolated(self):
        # Draws from one named stream must not perturb another.
        a1 = SeededRng(5, "alpha")
        b1 = SeededRng(5, "beta")
        seq_b_fresh = [SeededRng(5, "beta").randint(0, 10**9) for _ in range(1)]
        _ = [a1.randint(0, 10**9) for _ in range(100)]  # burn alpha
        assert b1.randint(0, 10**9) == seq_b_fresh[0]

    def test_child_streams_derived_from_name(self):
        parent = SeededRng(5, "p")
        assert parent.child("x").randint(0, 10**9) == SeededRng(5, "p/x").randint(0, 10**9)
        assert parent.child("x").randint(0, 10**9) != parent.child("y").randint(0, 10**9)


class TestWireDigest:
    """What the digest sees that end-of-run counters cannot."""

    def test_a_one_ns_longer_cable_moves_the_digest(self):
        # Section 2: a pause frame "takes a propagation delay to arrive".
        def lengthen(topo):
            topo.fabric.links[0].delay_ns += 1

        topo, wire = incast_run(9)
        longer, longer_wire = incast_run(9, after_boot=lengthen)
        assert longer.sim.events_fired == topo.sim.events_fired
        assert _link_counters(longer) == _link_counters(topo)
        assert longer_wire.hexdigest() != wire.hexdigest()

    def test_swapping_two_frames_sent_at_one_instant_moves_the_digest(self):
        def digest_of(order):
            topo = single_switch(n_hosts=2, seed=1)
            wire = WireDigest(topo.fabric)
            host = topo.hosts[0]
            frames = {
                "pause": PfcPauseFrame.pause([3]),
                "resume": PfcPauseFrame.resume([3]),
            }
            for name in order:
                host.port.link.transmit(host.port, Packet.pfc_pause(0, host.mac, frames[name]))
            return wire.crc

        assert digest_of(("pause", "resume")) == digest_of(("pause", "resume"))
        assert digest_of(("pause", "resume")) != digest_of(("resume", "pause"))

    def test_attaching_the_digest_changes_nothing_the_run_does(self):
        dark, _ = incast_run(9, digested=False)
        digested, _ = incast_run(9)
        assert digested.sim.events_fired == dark.sim.events_fired
        assert _link_counters(digested) == _link_counters(dark)

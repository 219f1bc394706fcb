"""Tests for topology builders, the fabric container and workload
generators."""

import pytest

from repro.sim import SeededRng, Simulator
from repro.sim.units import KB, MS, gbps
from repro.topo import deadlock_quad, single_switch, three_tier_clos, two_tier
from repro.topo.fabric import Fabric, host_ip, tor_subnet
from repro.workloads import ClosedLoopSender, PeriodicIncast, PoissonRequests


class TestAddressing:
    def test_host_ip_layout(self):
        assert host_ip(0, 0, 0) == (10 << 24) | 1
        assert host_ip(1, 2, 3) == (10 << 24) | (1 << 16) | (2 << 8) | 4

    def test_subnet_covers_hosts(self):
        prefix, plen = tor_subnet(1, 2)
        mask = ((1 << plen) - 1) << (32 - plen)
        for h in range(24):
            assert host_ip(1, 2, h) & mask == prefix

    def test_macs_unique(self):
        topo = three_tier_clos(
            n_podsets=2, tors_per_podset=2, hosts_per_tor=2, leaves_per_podset=2, n_spines=2
        )
        macs = [h.mac for h in topo.hosts]
        assert len(macs) == len(set(macs))

    def test_ips_unique_and_registered(self):
        topo = two_tier(n_tors=2, hosts_per_tor=3, n_leaves=2)
        ips = [h.ip for h in topo.hosts]
        assert len(ips) == len(set(ips))
        assert len(topo.fabric.directory) == len(ips)


class TestBuilders:
    def test_single_switch_shape(self):
        topo = single_switch(n_hosts=4)
        assert len(topo.hosts) == 4
        assert len(topo.tor.ports) == 4
        assert all(p.connected for p in topo.tor.ports)

    def test_two_tier_shape(self):
        topo = two_tier(n_tors=2, hosts_per_tor=3, n_leaves=4)
        assert len(topo.tors) == 2
        assert len(topo.leaves) == 4
        assert len(topo.hosts) == 6
        # Each ToR: 3 server ports + 4 uplinks.
        assert all(len(t.ports) == 7 for t in topo.tors)
        # Each leaf: one port per ToR.
        assert all(len(l.ports) == 2 for l in topo.leaves)

    def test_two_tier_pod_boots_every_host(self):
        topo = two_tier(n_tors=4, hosts_per_tor=8, n_leaves=4).boot()
        assert len(topo.hosts) == 32

    def test_three_tier_shape(self):
        topo = three_tier_clos(
            n_podsets=2, tors_per_podset=2, hosts_per_tor=2, leaves_per_podset=2, n_spines=4
        )
        assert len(topo.spines) == 4
        assert len(topo.podsets) == 2
        assert len(topo.hosts) == 8
        # Spine s serves leaf s // spines_per_leaf of each podset.
        assert all(len(s.ports) == 2 for s in topo.spines)

    def test_three_tier_spine_divisibility(self):
        with pytest.raises(ValueError):
            three_tier_clos(leaves_per_podset=3, n_spines=4)

    def test_deadlock_quad_shape(self):
        topo = deadlock_quad()
        assert set(topo.hosts) == {"S1", "S2", "S3", "S4", "S5", "S6", "S7"}
        assert len(topo.t0.ports) == 5  # S1, S2, S6 + two uplinks
        assert len(topo.t1.ports) == 6  # S3, S4, S5, S7 + two uplinks

    def test_cross_tor_connectivity_after_boot(self):
        from repro.rdma import connect_qp_pair, post_send

        topo = three_tier_clos(
            n_podsets=2, tors_per_podset=2, hosts_per_tor=1, leaves_per_podset=2, n_spines=2
        ).boot()
        rng = SeededRng(1, "conn")
        src = topo.podsets[0]["hosts_by_tor"][0][0]
        dst = topo.podsets[1]["hosts_by_tor"][1][0]
        qp, _ = connect_qp_pair(src, dst, rng)
        wr = post_send(qp, 64 * KB)
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert wr.completed

    def test_boot_populates_arp(self):
        topo = two_tier(n_tors=2, hosts_per_tor=2, n_leaves=1).boot()
        for t, tor in enumerate(topo.tors):
            for host in topo.hosts_by_tor[t]:
                assert tor.tables.arp_table.lookup(host.ip) == host.mac

    def test_fabric_duplicate_ip_rejected(self):
        fabric = Fabric()
        fabric.add_host("a", ip=1)
        with pytest.raises(ValueError):
            fabric.add_host("b", ip=1)

    def test_fabric_lookup_helpers(self):
        topo = single_switch(n_hosts=2)
        assert topo.fabric.host_named("S0") is topo.hosts[0]
        assert topo.fabric.switch_named("T0") is topo.tor
        with pytest.raises(KeyError):
            topo.fabric.host_named("nope")


class _RecordingChannel:
    def __init__(self, sim, delay_ns=1000):
        self.sim = sim
        self.delay_ns = delay_ns
        self.sent = []

    def send(self, nbytes, on_delivered=None):
        self.sent.append((self.sim.now, nbytes))
        if on_delivered is not None:
            self.sim.schedule(self.delay_ns, on_delivered, self.delay_ns)


class TestWorkloads:
    def test_closed_loop_keeps_pipeline_full(self):
        sim = Simulator()
        channel = _RecordingChannel(sim)
        sender = ClosedLoopSender(channel, 1000, max_messages=10, pipeline_depth=3).start()
        sim.run_until_idle()
        assert sender.completed_messages == 10
        assert len(channel.sent) == 10
        assert sender.completed_bytes == 10 * 1000

    def test_closed_loop_unbounded_runs_forever(self):
        sim = Simulator()
        channel = _RecordingChannel(sim)
        ClosedLoopSender(channel, 1000).start()
        sim.run(until=100_000)
        assert len(channel.sent) > 50

    def test_periodic_incast_fires_all_channels(self):
        sim = Simulator()
        channels = [_RecordingChannel(sim) for _ in range(5)]
        incast = PeriodicIncast(sim, channels, burst_bytes=100, period_ns=10_000, max_rounds=3)
        incast.start()
        sim.run(until=100_000)
        assert incast.rounds_fired == 3
        assert all(len(c.sent) == 3 for c in channels)
        assert incast.deliveries == 15

    def test_periodic_incast_offered_load(self):
        sim = Simulator()
        channels = [_RecordingChannel(sim) for _ in range(4)]
        PeriodicIncast(sim, channels, burst_bytes=1250, period_ns=1_000_000).start()
        sim.run(until=10_000_000 - 1)  # ten rounds: t = 0, 1, ..., 9 ms
        # 4 x 1250 B x 8 / 1 ms = 40 Mb/s.
        sent_bits = 8 * sum(nbytes for channel in channels for _t, nbytes in channel.sent)
        assert sent_bits * 1e9 / 10_000_000 == pytest.approx(40e6)

    def test_periodic_incast_jitter_spreads_sends(self):
        sim = Simulator()
        rng = SeededRng(1, "jit")
        channels = [_RecordingChannel(sim) for _ in range(8)]
        PeriodicIncast(
            sim, channels, burst_bytes=1, period_ns=100_000, rng=rng,
            jitter_ns=50_000, max_rounds=1,
        ).start()
        sim.run(until=200_000)
        first_times = sorted(c.sent[0][0] for c in channels)
        assert first_times[-1] > first_times[0]

    def test_poisson_requests_rate(self):
        sim = Simulator()
        rng = SeededRng(2, "poisson")
        channel = _RecordingChannel(sim)
        gen = PoissonRequests(
            sim, [channel], message_bytes=100, rate_per_second=100_000, rng=rng
        ).start()
        sim.run(until=10_000_000)  # 10 ms at 100k/s -> ~1000 requests
        gen.stop()
        assert 700 < gen.sent < 1300
        assert len(gen.latencies_ns) > 0

    def test_poisson_max_requests(self):
        sim = Simulator()
        rng = SeededRng(3, "poisson")
        channel = _RecordingChannel(sim)
        gen = PoissonRequests(
            sim, [channel], message_bytes=1, rate_per_second=10**6, rng=rng, max_requests=5
        ).start()
        sim.run(until=100_000_000)
        assert gen.sent == 5

    def test_poisson_rejects_bad_rate(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PoissonRequests(sim, [], 1, 0, SeededRng(1, "x"))

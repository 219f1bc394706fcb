"""Unit tests for ports, links, pause state machine and schedulers."""

import pytest

from repro.net import Device, DwrrScheduler, Link
from repro.packets import Ipv4Header, Packet, PfcPauseFrame, TcpHeader
from repro.sim import SeededRng, Simulator
from repro.sim.units import gbps


class Collector(Device):
    """A device that records everything delivered to it."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle_packet(self, port, packet):
        self.received.append((self.sim.now, packet))


def make_packet(payload=1000, src=1, dst=2, dscp=3, sport=1000):
    ip = Ipv4Header(src=src, dst=dst, protocol=6, dscp=dscp)
    tcp = TcpHeader(src_port=sport, dst_port=80)
    return Packet.tcp_segment(dst_mac=dst, src_mac=src, ip=ip, tcp=tcp, payload_bytes=payload)


def connect(sim, device_a, device_b, rate_bps, **kwargs):
    """A fresh port on each device, linked: ``(port_a, port_b, link)``."""
    port_a, port_b = device_a.add_port(), device_b.add_port()
    return port_a, port_b, Link(sim, port_a, port_b, rate_bps, **kwargs)


@pytest.fixture
def pair():
    sim = Simulator()
    a = Collector(sim, "a")
    b = Collector(sim, "b")
    port_a, port_b, link = connect(sim, a, b, rate_bps=gbps(40), delay_ns=100)
    return sim, a, b, port_a, port_b, link


class TestLink:
    def test_delivery_time_is_serialization_plus_propagation(self, pair):
        sim, a, b, port_a, port_b, link = pair
        packet = make_packet(payload=1000)
        # wire = 1000 payload + 20 TCP + 20 IP + 14 eth + 4 FCS + 20 overhead = 1078B
        # at 40 Gb/s -> ceil(8624/40) = 216 ns; +100 ns propagation = 316.
        port_a.enqueue(packet, priority=3)
        sim.run_until_idle()
        assert len(b.received) == 1
        assert b.received[0][0] == 316

    def test_back_to_back_packets_respect_line_rate(self, pair):
        sim, a, b, port_a, port_b, link = pair
        for _ in range(3):
            port_a.enqueue(make_packet(payload=1000), priority=3)
        sim.run_until_idle()
        times = [t for t, _ in b.received]
        assert times == [316, 316 + 216, 316 + 432]

    def test_full_duplex(self, pair):
        sim, a, b, port_a, port_b, link = pair
        port_a.enqueue(make_packet(), priority=0)
        port_b.enqueue(make_packet(), priority=0)
        sim.run_until_idle()
        assert len(a.received) == 1
        assert len(b.received) == 1

    def test_down_link_blackholes(self, pair):
        sim, a, b, port_a, port_b, link = pair
        link.set_down()
        port_a.enqueue(make_packet(), priority=0)
        sim.run_until_idle()
        assert b.received == []
        assert link.lost == 1
        link.set_up()
        port_a.enqueue(make_packet(), priority=0)
        sim.run_until_idle()
        assert len(b.received) == 1

    def test_random_loss_drops_data_not_pauses(self):
        sim = Simulator()
        a = Collector(sim, "a")
        b = Collector(sim, "b")
        rng = SeededRng(7, "loss")
        port_a, port_b, link = connect(
            sim, a, b, rate_bps=gbps(40), delay_ns=10, loss_rate=1.0, loss_rng=rng
        )
        port_a.enqueue(make_packet(), priority=0)
        pause = Packet.pfc_pause(dst_mac=1, src_mac=2, pause=PfcPauseFrame.pause([3]))
        port_a.enqueue_control(pause)
        sim.run_until_idle()
        kinds = [p.is_pause for _, p in b.received]
        assert kinds == [True]  # the data packet was lost, the pause was not

    def test_loss_rate_requires_rng(self):
        sim = Simulator()
        a = Collector(sim, "a")
        b = Collector(sim, "b")
        with pytest.raises(ValueError):
            connect(sim, a, b, rate_bps=gbps(40), loss_rate=0.1)

    def test_port_cannot_be_double_connected(self, pair):
        sim, a, b, port_a, port_b, link = pair
        c = Collector(sim, "c")
        with pytest.raises(RuntimeError):
            Link(sim, port_a, c.add_port(), rate_bps=gbps(40))


class TestPauseStateMachine:
    def test_pause_blocks_priority(self, pair):
        sim, a, b, port_a, port_b, link = pair
        port_a.receive_pause(PfcPauseFrame.pause([3], quanta=0xFFFF))
        port_a.enqueue(make_packet(), priority=3)
        sim.run(until=10_000)
        assert b.received == []
        assert port_a.is_paused(3)

    def test_pause_is_per_priority(self, pair):
        sim, a, b, port_a, port_b, link = pair
        port_a.receive_pause(PfcPauseFrame.pause([3]))
        port_a.enqueue(make_packet(dscp=3), priority=3)
        port_a.enqueue(make_packet(dscp=0), priority=0)
        sim.run(until=10_000)
        assert len(b.received) == 1  # only the priority-0 packet got through

    def test_pause_expires_after_quanta(self, pair):
        sim, a, b, port_a, port_b, link = pair
        # 100 quanta at 40 Gb/s = 100 * 512 / 40 = 1280 ns.
        port_a.receive_pause(PfcPauseFrame.pause([3], quanta=100))
        port_a.enqueue(make_packet(), priority=3)
        sim.run_until_idle()
        assert len(b.received) == 1
        arrival = b.received[0][0]
        assert arrival == 1280 + 216 + 100

    def test_zero_quanta_resumes_immediately(self, pair):
        sim, a, b, port_a, port_b, link = pair
        port_a.receive_pause(PfcPauseFrame.pause([3]))
        port_a.enqueue(make_packet(), priority=3)
        sim.schedule(500, port_a.receive_pause, PfcPauseFrame.resume([3]))
        sim.run_until_idle()
        assert len(b.received) == 1
        assert b.received[0][0] == 500 + 216 + 100

    def test_repeated_pause_refreshes_deadline(self, pair):
        sim, a, b, port_a, port_b, link = pair
        port_a.receive_pause(PfcPauseFrame.pause([3], quanta=100))  # 1280 ns
        sim.schedule(1000, port_a.receive_pause, PfcPauseFrame.pause([3], quanta=100))
        port_a.enqueue(make_packet(), priority=3)
        sim.run_until_idle()
        assert b.received[0][0] == 1000 + 1280 + 216 + 100

    def test_in_flight_packet_completes_despite_pause(self, pair):
        sim, a, b, port_a, port_b, link = pair
        port_a.enqueue(make_packet(), priority=3)

        def pause_mid_flight():
            port_a.receive_pause(PfcPauseFrame.pause([3]))

        sim.schedule(50, pause_mid_flight)  # serialization takes 216 ns
        sim.run(until=5_000)
        assert len(b.received) == 1  # 802.1Qbb cannot preempt a frame

    def test_control_frames_bypass_pause(self, pair):
        sim, a, b, port_a, port_b, link = pair
        port_a.receive_pause(PfcPauseFrame.pause(list(range(8))))
        pause = Packet.pfc_pause(dst_mac=1, src_mac=2, pause=PfcPauseFrame.pause([0]))
        port_a.enqueue_control(pause)
        sim.run(until=5_000)
        assert len(b.received) == 1
        assert b.received[0][1].is_pause

    def test_force_resume_all(self, pair):
        sim, a, b, port_a, port_b, link = pair
        port_a.receive_pause(PfcPauseFrame.pause([3, 4]))
        port_a.enqueue(make_packet(), priority=3)
        sim.schedule(300, port_a.force_resume_all)
        sim.run_until_idle()
        assert len(b.received) == 1
        assert not any(port_a.is_paused(p) for p in range(8))

    def test_pause_interval_accounting(self, pair):
        sim, a, b, port_a, port_b, link = pair
        port_a.receive_pause(PfcPauseFrame.pause([3], quanta=100))  # 1280 ns
        port_a.enqueue(make_packet(), priority=3)
        sim.run_until_idle()
        assert port_a.paused_interval_ns() >= 1280

    def test_pause_rx_counters(self, pair):
        sim, a, b, port_a, port_b, link = pair
        port_a.receive_pause(PfcPauseFrame.pause([3]))
        port_a.receive_pause(PfcPauseFrame.resume([3]))
        assert port_a.stats.pause_rx == 1
        assert port_a.stats.resume_rx == 1


class TestSchedulers:
    def test_strict_priority_serves_high_first(self, pair):
        sim, a, b, port_a, port_b, link = pair
        port_a.receive_pause(PfcPauseFrame.pause([0, 3], quanta=100))
        low = make_packet(dscp=0)
        high = make_packet(dscp=3)
        port_a.enqueue(low, priority=0)
        port_a.enqueue(high, priority=3)
        sim.run_until_idle()
        first = b.received[0][1]
        assert first.ip.dscp == 3

    def test_dwrr_shares_bandwidth_by_weight(self, pair):
        sim, a, b, port_a, port_b, link = pair
        port_a.scheduler = DwrrScheduler(weights={3: 3, 0: 1})
        for _ in range(40):
            port_a.enqueue(make_packet(dscp=3, payload=1000), priority=3)
            port_a.enqueue(make_packet(dscp=0, payload=1000), priority=0)
        sim.run_until_idle()
        first_20 = [p.ip.dscp for _, p in b.received[:20]]
        # Weight 3:1 -> roughly three priority-3 packets per priority-0.
        assert first_20.count(3) >= 12

    def test_head_of_line_drop_for_flood_copies(self):
        sim = Simulator()
        a = Collector(sim, "a")
        b = Collector(sim, "b")
        port_a = a.add_port(drop_flood_at_head=True)
        port_b = b.add_port()
        Link(sim, port_a, port_b, rate_bps=gbps(40), delay_ns=10)

        class Meta:
            flood_copy = True

        dropped = []
        port_a.on_dequeue = lambda pkt, meta, dropped_at_head: dropped.append(dropped_at_head)
        port_a.enqueue(make_packet(), priority=0, meta=Meta())
        port_a.enqueue(make_packet(), priority=0)  # normal packet
        sim.run_until_idle()
        assert dropped == [True, False]
        assert len(b.received) == 1
        assert port_a.stats.head_drops == 1

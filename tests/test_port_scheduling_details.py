"""Finer-grained tests: DWRR with mixed frame sizes, pause-interval
metric, control-queue precedence, port statistics, and what a port in
the middle of a back-to-back burst does when its schedule is perturbed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import install_default_auditors
from repro.faults.invariants import CONSERVATION_INVARIANTS
from repro.net import Device, DwrrScheduler, Link
from repro.net.port import StrictPriorityScheduler
from repro.packets import Ipv4Header, Packet, PfcPauseFrame, TcpHeader
from repro.sim import SeededRng, Simulator
from repro.sim.units import KB, MS, US, gbps
from repro.topo import single_switch
from tests.strategies import drive_incast


class Sink(Device):
    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.received = []

    def handle_packet(self, port, packet):
        self.received.append((self.sim.now, packet))


def packet(payload, dscp=0):
    return Packet.tcp_segment(
        dst_mac=2,
        src_mac=1,
        ip=Ipv4Header(src=1, dst=2, protocol=6, dscp=dscp),
        tcp=TcpHeader(src_port=7, dst_port=8),
        payload_bytes=payload,
    )


def wire(sim, scheduler=None):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    port_a = a.add_port()
    port_b = b.add_port()
    Link(sim, port_a, port_b, rate_bps=gbps(10), delay_ns=10)
    if scheduler is not None:
        port_a.scheduler = scheduler
    return port_a, b


class TestDwrrMixedSizes:
    def test_byte_fairness_with_unequal_frames(self):
        # Priority 1 sends jumbo-ish frames, priority 2 small ones; with
        # equal weights DWRR must equalize *bytes*, not packets.
        sim = Simulator()
        port, sink = wire(sim, DwrrScheduler(weights={1: 1, 2: 1}))
        for _ in range(100):
            port.enqueue(packet(4000, dscp=1), priority=1)
        for _ in range(400):
            port.enqueue(packet(1000, dscp=2), priority=2)
        sim.run(until=sim.now + 1 * MS)
        got = [p for _, p in sink.received]
        big_bytes = sum(p.payload_bytes for p in got if p.ip.dscp == 1)
        small_bytes = sum(p.payload_bytes for p in got if p.ip.dscp == 2)
        assert big_bytes > 0 and small_bytes > 0
        ratio = big_bytes / small_bytes
        assert 0.6 < ratio < 1.6

    def test_weights_shift_byte_share(self):
        sim = Simulator()
        port, sink = wire(sim, DwrrScheduler(weights={1: 4, 2: 1}))
        for _ in range(300):
            port.enqueue(packet(1000, dscp=1), priority=1)
            port.enqueue(packet(1000, dscp=2), priority=2)
        sim.run(until=sim.now + 1 * MS)
        first_half = [p for _, p in sink.received[: len(sink.received) // 2]]
        share_1 = sum(1 for p in first_half if p.ip.dscp == 1) / len(first_half)
        assert share_1 > 0.65

    def test_idle_queue_does_not_hoard_credit(self):
        sim = Simulator()
        scheduler = DwrrScheduler(weights={1: 1, 2: 1})
        port, sink = wire(sim, scheduler)
        # Queue 2 runs alone for a while...
        for _ in range(50):
            port.enqueue(packet(1000, dscp=2), priority=2)
        sim.run(until=sim.now + 100 * US)
        # ...then queue 1 joins; it must not be starved by banked credit.
        for _ in range(50):
            port.enqueue(packet(1000, dscp=1), priority=1)
            port.enqueue(packet(1000, dscp=2), priority=2)
        sim.run(until=sim.now + 1 * MS)
        tail = [p for _, p in sink.received[-60:]]
        assert any(p.ip.dscp == 1 for p in tail[:10])


class TestPortTelemetry:
    def test_pause_interval_accumulates_across_episodes(self):
        sim = Simulator()
        port, _ = wire(sim)
        port.receive_pause(PfcPauseFrame.pause([3], quanta=100))
        sim.run(until=sim.now + 50 * US)
        first = port.paused_interval_ns()
        assert first > 0
        port.receive_pause(PfcPauseFrame.pause([3], quanta=100))
        sim.run(until=sim.now + 50 * US)
        assert port.paused_interval_ns() > first

    def test_tx_stats_per_priority(self):
        sim = Simulator()
        port, sink = wire(sim)
        port.enqueue(packet(500, dscp=2), priority=2)
        port.enqueue(packet(700, dscp=5), priority=5)
        sim.run(until=sim.now + 100 * US)
        assert port.stats.tx_packets[2] == 1
        assert port.stats.tx_packets[5] == 1
        assert port.stats.tx_bytes[5] > port.stats.tx_bytes[2]
        assert port.stats.total_tx_packets == 2

    def test_control_precedes_queued_data(self):
        sim = Simulator()
        port, sink = wire(sim)
        for _ in range(5):
            port.enqueue(packet(1000), priority=0)
        pause = Packet.pfc_pause(dst_mac=1, src_mac=2, pause=PfcPauseFrame.pause([0]))
        port.enqueue_control(pause)
        sim.run(until=sim.now + 100 * US)
        kinds = [p.is_pause for _, p in sink.received]
        # The pause left ahead of every *queued* data frame (one data
        # frame may already have been in flight).
        assert True in kinds
        assert kinds.index(True) <= 1

    def test_queue_introspection(self):
        sim = Simulator()
        a = Sink(sim, "solo")
        port = a.add_port()  # unconnected: nothing drains
        port.enqueue(packet(1000), priority=3)
        port.enqueue(packet(1000), priority=3)
        assert port.queue_lengths[3] == 2
        assert port.total_queued_packets == 2
        assert port.queued_bytes[3] == 2 * packet(1000).size_bytes
        assert [entry[1].size_bytes for entry in port.iter_entries()] == [
            packet(1000).size_bytes
        ] * 2


#: The lossless class RDMA traffic rides on (QpConfig default).
RDMA_PRIORITY = 3


@pytest.fixture
def burst():
    """A 2:1 incast stepped to the middle of a burst: returns ``(topo,
    port)`` with the ToR port facing the victim NIC busy clocking out one
    RDMA frame and at least four more queued behind it."""
    topo = single_switch(n_hosts=3, seed=3).boot()
    drive_incast(topo, 2, SeededRng(3, "burst"), message_bytes=128 * KB)
    victim = topo.hosts[0].nic
    port = next(
        p for p in topo.tor.ports if p.peer is not None and p.peer.device is victim
    )
    while not (port._busy and port.queue_lengths[RDMA_PRIORITY] >= 4):
        assert topo.sim.step(), "incast drained before a burst formed"
    return topo, port


def _step_until(sim, condition, budget=10_000):
    for _ in range(budget):
        if condition():
            return
        assert sim.step()
    raise AssertionError("condition not reached in %d events" % budget)


class TestMidBurst:
    """Pause storms, watchdog trips and freezes land between two frames
    of a draining queue; the frame on the wire always completes, and the
    change takes effect at the next frame boundary."""

    def test_pause_on_draining_priority_stops_at_the_frame_boundary(self, burst):
        topo, port = burst
        sim = topo.sim
        tx_before = port.stats.tx_packets[RDMA_PRIORITY]
        port.receive_pause(PfcPauseFrame({RDMA_PRIORITY: 0xFFFF}))  # ~840 us
        assert port.is_paused(RDMA_PRIORITY)
        sim.run(until=sim.now + 100 * US)
        # The frame on the wire arrived; nothing departed after it.
        assert port.stats.tx_packets[RDMA_PRIORITY] == tx_before
        assert topo.hosts[0].nic.stats.rx_processed == tx_before
        assert port.queue_lengths[RDMA_PRIORITY] >= 4
        # Expiry restarts the port without a fresh kick.
        sim.run(until=sim.now + 2 * MS)
        assert port.stats.tx_packets[RDMA_PRIORITY] > tx_before + 1

    def test_higher_priority_enqueue_is_the_next_frame_served(self, burst):
        topo, port = burst
        high = RDMA_PRIORITY + 2
        tx_before = port.stats.tx_packets[RDMA_PRIORITY]
        port.enqueue(packet(256), priority=high)
        _step_until(topo.sim, lambda: port.stats.tx_packets[high] == 1)
        assert port.stats.tx_packets[RDMA_PRIORITY] == tx_before

    def test_control_frame_precedes_queued_data(self, burst):
        topo, port = burst
        tx_before = port.stats.total_tx_packets
        resume_tx = port.stats.resume_tx
        port.enqueue_control(
            Packet.pfc_pause(
                dst_mac=0, src_mac=0, pause=PfcPauseFrame({RDMA_PRIORITY: 0})
            )
        )
        _step_until(topo.sim, lambda: port.stats.resume_tx == resume_tx + 1)
        assert port.stats.total_tx_packets == tx_before

    def test_freeze_halts_egress_and_keeps_the_queue(self, burst):
        topo, port = burst
        sim = topo.sim
        tx_before = port.stats.total_tx_packets
        port.frozen = True
        sim.run(until=sim.now + 1 * MS)
        assert port.stats.total_tx_packets == tx_before
        assert port.total_queued_packets >= 4
        assert port.total_queued_packets == sum(port.queue_lengths)
        assert port.total_queued_bytes == sum(port.queued_bytes)

    def test_watchdog_trip_drops_lossless_and_conserves_buffer(self, burst):
        topo, port = burst
        tor = topo.tor
        registry = install_default_auditors(topo.fabric).start()
        tor.on_watchdog_trip(port)
        assert tor.lossless_disabled(port)
        assert not any(port.is_paused(p) for p in range(8))
        topo.sim.run(until=topo.sim.now + 2 * MS)
        assert tor.counters.drops["watchdog-lossless"] > 0
        registry.audit_now()
        assert not registry.violations_in_class(CONSERVATION_INVARIANTS)


# -- the inlined strict-priority pick vs StrictPriorityScheduler.pick -----------


class _PickedStrictPriority(StrictPriorityScheduler):
    """Strict priority served through ``pick``: ``Port._try_send`` inlines
    only the exact type, so a subclass takes the reference path."""

    __slots__ = ("picks",)

    def __init__(self):
        self.picks = 0

    def pick(self, port):
        self.picks += 1
        return super().pick(port)


_port_ops = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.integers(0, 7), st.integers(0, 1500)),
        st.tuples(
            st.just("pause"),
            st.dictionaries(st.integers(0, 7), st.integers(0, 400), min_size=1, max_size=8),
        ),
        st.tuples(st.just("advance"), st.integers(0, 3000)),
    ),
    max_size=60,
)


@settings(deadline=None)
@given(ops=_port_ops)
def test_inlined_strict_priority_matches_pick(ops):
    def replay(scheduler):
        sim = Simulator()
        port, sink = wire(sim, scheduler)
        for number, op in enumerate(ops):
            if op[0] == "enqueue":
                frame = packet(op[2])
                frame.context = number
                port.enqueue(frame, priority=op[1])
            elif op[0] == "pause":
                port.receive_pause(PfcPauseFrame(op[1]))
            else:
                sim.run(until=sim.now + op[1])
        sim.run(until=sim.now + 1 * MS)
        departures = [(at, frame.context) for at, frame in sink.received]
        return departures, port.stats.tx_packets, port.paused_interval_ns()

    reference = _PickedStrictPriority()
    assert replay(StrictPriorityScheduler()) == replay(reference)
    if any(op[0] == "enqueue" for op in ops):
        assert reference.picks  # the reference really went through pick()

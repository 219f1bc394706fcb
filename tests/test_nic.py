"""Unit tests for the NIC: rx pipeline, pause generation, watchdog, tx
scheduling."""

import pytest

from repro.nic.nic import Nic, NicConfig, NicWatchdogConfig
from repro.net import Device, Link
from repro.packets import Ipv4Header, Packet, UdpHeader
from repro.packets.pause import MAX_QUANTA, PfcPauseFrame
from repro.packets.rocev2 import BaseTransportHeader, BthOpcode, ROCEV2_UDP_PORT
from repro.sim import Simulator
from repro.sim.units import KB, MS, US, gbps
from repro.switch.pfc import PfcConfig


class FakeTor(Device):
    """Far end of the NIC's link; records pause frames and data."""

    def __init__(self, sim):
        super().__init__(sim, "tor")
        self.pauses = []
        self.resumes = []
        self.data = []

    def handle_packet(self, port, packet):
        if packet.is_pause:
            if packet.pause.paused_priorities:
                self.pauses.append(self.sim.now)
            else:
                self.resumes.append(self.sim.now)
        else:
            self.data.append(packet)


def make_nic(sim, **config_kwargs):
    # The watchdog poll timer re-arms forever, so tests that want a
    # quiescent simulator disable it unless they test it explicitly.
    config_kwargs.setdefault("watchdog_config", NicWatchdogConfig(enabled=False))
    config = NicConfig(
        pfc_config=PfcConfig(lossless_priorities=(3,)),
        rx_buffer_bytes=64 * KB,
        rx_xoff_bytes=32 * KB,
        rx_xon_bytes=16 * KB,
        **config_kwargs,
    )
    nic = Nic(sim, "nic", mac=0xAA, config=config)
    tor = FakeTor(sim)
    Link(sim, nic.port, tor.add_port(), rate_bps=gbps(40), delay_ns=10)
    return nic, tor


def pfc_frame(quanta_by_priority):
    return Packet.pfc_pause(
        dst_mac=0x0180C2000001, src_mac=0xBB, pause=PfcPauseFrame(quanta_by_priority)
    )


def data_packet(dst_mac=0xAA, payload=1024, psn=0):
    return Packet.rocev2(
        dst_mac=dst_mac,
        src_mac=0xBB,
        ip=Ipv4Header(src=1, dst=2, dscp=3),
        udp=UdpHeader(src_port=50000, dst_port=ROCEV2_UDP_PORT),
        bth=BaseTransportHeader(opcode=BthOpcode.SEND_ONLY, dest_qp=1, psn=psn),
        payload_bytes=payload,
    )


class TestRxPipeline:
    def test_processes_and_delivers(self):
        sim = Simulator()
        nic, tor = make_nic(sim)
        got = []
        nic.rx_handler = got.append
        nic.handle_packet(nic.port, data_packet())
        sim.run(until=sim.now + 2 * MS)
        assert len(got) == 1
        assert nic.stats.rx_processed == 1

    def test_wrong_mac_discarded(self):
        # "the destination MAC does not match" -- flood copies die here.
        sim = Simulator()
        nic, tor = make_nic(sim)
        nic.handle_packet(nic.port, data_packet(dst_mac=0xCC))
        sim.run(until=sim.now + 2 * MS)
        assert nic.stats.rx_dropped_mac == 1
        assert nic.stats.rx_processed == 0

    def test_broadcast_accepted(self):
        sim = Simulator()
        nic, tor = make_nic(sim)
        got = []
        nic.rx_handler = got.append
        nic.handle_packet(nic.port, data_packet(dst_mac=0xFFFFFFFFFFFF))
        sim.run(until=sim.now + 2 * MS)
        assert got

    def test_backlog_crosses_xoff_generates_pause(self):
        sim = Simulator()
        nic, tor = make_nic(sim, rx_base_ns_per_packet=10_000)  # very slow
        for psn in range(40):  # 40 KB > 32 KB XOFF
            nic.handle_packet(nic.port, data_packet(psn=psn))
        sim.run(until=sim.now + 1 * MS)
        assert nic.stats.pause_generated >= 1
        assert tor.pauses

    def test_xon_resumes_after_drain(self):
        sim = Simulator()
        nic, tor = make_nic(sim, rx_base_ns_per_packet=1_000)
        for psn in range(40):
            nic.handle_packet(nic.port, data_packet(psn=psn))
        sim.run(until=sim.now + 1 * MS)
        assert tor.resumes  # drained below XON -> explicit resume
        assert nic.rx_occupancy_bytes == 0

    def test_dead_nic_drops_everything(self):
        sim = Simulator()
        nic, tor = make_nic(sim)
        nic.die()
        nic.handle_packet(nic.port, data_packet())
        sim.run(until=sim.now + 2 * MS)
        assert nic.stats.rx_dropped_dead == 1

    def test_buffer_overrun_counted_when_pauses_disabled(self):
        sim = Simulator()
        nic, tor = make_nic(sim)
        nic.pause_generation_disabled = True
        nic.break_rx_pipeline()
        for psn in range(100):  # 100 KB > 64 KB buffer
            nic.handle_packet(nic.port, data_packet(psn=psn))
        assert nic.stats.rx_dropped_buffer > 0


class TestStormBug:
    def test_broken_pipeline_pauses_continuously(self):
        sim = Simulator()
        nic, tor = make_nic(sim, watchdog_config=NicWatchdogConfig(enabled=False))
        nic.break_rx_pipeline()
        sim.run(until=sim.now + 5 * MS)
        # Refresh keeps the pause alive: multiple pause frames, no resume.
        assert len(tor.pauses) >= 5
        assert not tor.resumes

    def test_watchdog_trips_and_silences_pauses(self):
        sim = Simulator()
        nic, tor = make_nic(
            sim,
            watchdog_config=NicWatchdogConfig(
                stall_threshold_ns=1 * MS, poll_interval_ns=200 * US
            ),
        )
        nic.break_rx_pipeline()
        sim.run(until=sim.now + 3 * MS)
        assert nic.watchdog_trips == 1
        assert nic.pause_generation_disabled
        pauses_at_trip = len(tor.pauses)
        sim.run(until=sim.now + 5 * MS)
        assert len(tor.pauses) == pauses_at_trip  # silence after the trip

    def test_watchdog_does_not_rearm(self):
        # Paper: "the NIC watchdog does not re-enable the lossless mode"
        # because a storming NIC never recovers on its own.
        sim = Simulator()
        nic, tor = make_nic(
            sim,
            watchdog_config=NicWatchdogConfig(
                stall_threshold_ns=1 * MS, poll_interval_ns=200 * US
            ),
        )
        nic.break_rx_pipeline()
        sim.run(until=sim.now + 10 * MS)
        assert nic.pause_generation_disabled

    def test_repair_restores_service(self):
        # "the NIC PFC storm problem typically can be fixed by a server
        # reboot."
        sim = Simulator()
        nic, tor = make_nic(
            sim,
            watchdog_config=NicWatchdogConfig(
                stall_threshold_ns=1 * MS, poll_interval_ns=200 * US
            ),
        )
        nic.break_rx_pipeline()
        sim.run(until=sim.now + 3 * MS)
        assert nic.pause_generation_disabled
        nic.repair()
        assert not nic.pause_generation_disabled
        got = []
        nic.rx_handler = got.append
        nic.handle_packet(nic.port, data_packet())
        sim.run(until=sim.now + 1 * MS)
        assert got

    def test_healthy_nic_never_trips_watchdog(self):
        sim = Simulator()
        nic, tor = make_nic(
            sim,
            watchdog_config=NicWatchdogConfig(
                stall_threshold_ns=1 * MS, poll_interval_ns=200 * US
            ),
        )
        for psn in range(20):
            nic.handle_packet(nic.port, data_packet(psn=psn))
        sim.run(until=sim.now + 10 * MS)
        assert nic.watchdog_trips == 0


class _StubSource:
    """Minimal tx source for scheduler tests."""

    def __init__(self, nic, tag, count, ready_at=0):
        self.nic = nic
        self.tag = tag
        self.remaining = count
        self.ready_at = ready_at
        self.pulled = []

    def next_ready_ns(self):
        if self.remaining <= 0:
            return None
        return self.ready_at

    def pull(self):
        self.remaining -= 1
        packet = data_packet(dst_mac=0xDD, psn=len(self.pulled))
        packet.flow = self.tag
        self.pulled.append(packet)
        return packet, 3


class TestTxScheduler:
    def test_round_robin_between_sources(self):
        sim = Simulator()
        nic, tor = make_nic(sim)
        a = _StubSource(nic, "a", 20)
        b = _StubSource(nic, "b", 20)
        nic.register_source(a)
        nic.register_source(b)
        sim.run(until=sim.now + 2 * MS)
        flows = [p.flow for p in tor.data[:10]]
        # Interleaved service, not a 20-packet run of one source.
        assert "a" in flows and "b" in flows

    def test_future_ready_time_respected(self):
        sim = Simulator()
        nic, tor = make_nic(sim)
        late = _StubSource(nic, "late", 1, ready_at=1 * MS)
        nic.register_source(late)
        sim.run(until=sim.now + 2 * MS)
        assert len(tor.data) == 1
        # Packet cannot have left before its pacing gate opened.
        assert late.pulled[0].uid is not None
        assert tor.data[0].flow == "late"

    def test_ip_ids_sequential(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        ids = [nic.next_ip_id() for _ in range(300)]
        assert ids[:3] == [0, 1, 2]
        assert ids == [i & 0xFFFF for i in range(300)]

    def test_ip_id_wraps_at_16_bits(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        nic._ip_id = 0xFFFF
        assert nic.next_ip_id() == 0xFFFF
        assert nic.next_ip_id() == 0

    def test_unregister_keeps_the_next_source_next(self):
        # [a, b, c] with c next in turn: removing a used to leave the
        # pointer at 2 % 2 == 0, i.e. at b, and c's turn was skipped.
        sim = Simulator()
        nic, tor = make_nic(sim, tx_queue_target_packets=1)
        nic.handle_packet(nic.port, pfc_frame({3: MAX_QUANTA}))
        a, b, c = (_StubSource(nic, tag, 3) for tag in "abc")
        for source in (a, b, c):
            nic.register_source(source)
        # One frame of a's fills the paused queue; b and c wait.
        assert [len(s.pulled) for s in (a, b, c)] == [1, 0, 0]
        nic._rr_index = 2
        nic.unregister_source(a)
        assert nic._sources[nic._rr_index] is c
        nic.handle_packet(nic.port, pfc_frame({3: 0}))
        sim.run(until=sim.now + 2 * MS)
        assert [p.flow for p in tor.data] == ["a", "c", "b", "c", "b", "c", "b"]

    def test_unregister_renumbers_the_ready_set(self):
        sim = Simulator()
        nic, tor = make_nic(sim, tx_queue_target_packets=1)
        a, b, c = (_StubSource(nic, tag, 2) for tag in "abc")
        for source in (a, b, c):
            nic.register_source(source)
        nic.unregister_source(b)
        assert nic._ready == [0, 1]
        assert [nic._sources[slot] for slot in nic._ready] == [a, c]
        nic.unregister_source(b)  # absent: a no-op
        sim.run(until=sim.now + 2 * MS)
        assert sorted(p.flow for p in tor.data) == ["a", "a", "c", "c"]

    def test_unregistering_the_last_slot_wraps_the_pointer(self):
        sim = Simulator()
        nic, _ = make_nic(sim, tx_queue_target_packets=1)
        a, b, c = (_StubSource(nic, tag, 1) for tag in "abc")
        for source in (a, b, c):
            nic.register_source(source)
        nic._rr_index = 2  # c next in turn
        nic.unregister_source(c)
        assert nic._rr_index == 0

    def test_a_source_cannot_register_twice(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        a = _StubSource(nic, "a", 1)
        nic.register_source(a)
        with pytest.raises(ValueError):
            nic.register_source(a)

    def test_notify_from_an_unregistered_source_is_ignored(self):
        sim = Simulator()
        nic, tor = make_nic(sim)
        a = _StubSource(nic, "a", 5)
        nic.notify_tx_ready(a)
        assert a.pulled == []
        nic.register_source(a)
        pulled = len(a.pulled)
        nic.unregister_source(a)
        nic.notify_tx_ready(a)
        sim.run(until=sim.now + 1 * MS)
        # What was pulled before the removal still drains; nothing after.
        assert len(a.pulled) == len(tor.data) == pulled < 5

    def test_an_idle_source_is_probed_again_only_after_it_notifies(self):
        sim = Simulator()
        nic, tor = make_nic(sim)
        a = _StubSource(nic, "a", 1)
        nic.register_source(a)
        sim.run(until=sim.now + 1 * MS)
        assert len(tor.data) == 1 and nic._ready == []
        a.remaining = 2
        sim.run(until=sim.now + 1 * MS)
        assert len(tor.data) == 1  # nobody told the NIC
        nic.notify_tx_ready(a)
        sim.run(until=sim.now + 1 * MS)
        assert len(tor.data) == 3


class TestRepairRestartsTransmit:
    """`repair()` used to restart the receive side only: work posted to
    a dead host was never pulled (nothing sent, so no RTO either)."""

    @staticmethod
    def _rack():
        from repro.rdma import connect_qp_pair
        from repro.sim.rng import SeededRng
        from repro.topo import single_switch

        topo = single_switch(n_hosts=2, seed=3).boot()
        a, b = topo.hosts
        qp, _ = connect_qp_pair(a, b, SeededRng(3, "repair"))
        topo.sim.run(until=topo.sim.now + 100 * US)
        return topo, a, qp

    @pytest.mark.parametrize("path", ["host", "injector"])
    def test_work_posted_while_dead_goes_out_after_repair(self, path):
        from repro.faults import FaultInjector
        from repro.rdma import post_send

        topo, a, qp = self._rack()
        sim = topo.sim
        a.die()
        wr = post_send(qp, 4096)
        sim.run(until=sim.now + 1 * MS)
        assert qp.stats.data_packets_sent == 0
        if path == "host":
            a.repair()
        else:
            FaultInjector(topo.fabric).repair_nic(a)  # no Host.boot() behind it
        sim.run(until=sim.now + 20 * MS)
        assert wr.completed
        assert qp.stats.data_packets_sent == 4
        assert qp.stats.timeouts == 0

    def test_frames_the_port_held_at_die_go_out_after_repair(self):
        # The resume frame repair() sends restarts the port transmitter,
        # whose dequeue callback restarts the pump.
        from repro.faults import FaultInjector
        from repro.rdma import post_send

        topo, a, qp = self._rack()
        sim = topo.sim
        wr = post_send(qp, 64 * 1024)
        sim.run(until=sim.now + 2 * US)
        a.die()
        sim.run(until=sim.now + 1 * MS)
        assert a.nic.port.total_queued_packets > 0
        FaultInjector(topo.fabric).repair_nic(a)
        sim.run(until=sim.now + 20 * MS)
        assert wr.completed
        assert a.nic.port.total_queued_packets == 0

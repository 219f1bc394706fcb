"""Focused coverage: experiment plumbing, window/ack behaviour, fabric
aggregates, formatting helpers."""

import pytest

from repro.campaign.store import CampaignStore
from repro.experiments.common import apply_ets_weights
from repro.experiments.result import ExperimentResult
from repro.net.port import DwrrScheduler
from repro.rdma import QpConfig, connect_qp_pair, post_send
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS
from repro.topo import single_switch


class TestExperimentResult:
    def test_format_table_alignment_and_content(self):
        result = ExperimentResult([
            {"name": "alpha", "value": 1.23456, "count": 10},
            {"name": "beta-long-name", "value": 2.0, "count": None},
        ])
        table = result.format_table()
        lines = table.splitlines()
        assert "name" in lines[1]
        assert "alpha" in table and "beta-long-name" in table
        assert "1.235" in table  # floats rendered to 3 places

    def test_format_table_empty(self):
        assert "(no rows)" in ExperimentResult([]).format_table()

    def test_to_csv_unions_columns(self, tmp_path):
        result = ExperimentResult([
            {"a": 1, "b": 2},
            {"a": 3, "c": 4},
        ])
        _, path = CampaignStore(str(tmp_path)).write_run_artifacts(
            "out", result.schema(), result.rows()
        )
        lines = open(path).read().splitlines()
        assert lines[0] == "a,b,c"
        assert len(lines) == 3

    def test_apply_ets_weights_installs_dwrr_everywhere(self):
        topo = single_switch(n_hosts=3).boot()
        apply_ets_weights(topo.fabric, {3: 4, 1: 1})
        for switch in topo.fabric.switches:
            for port in switch.ports:
                assert isinstance(port.scheduler, DwrrScheduler)
                assert port.scheduler.weight(3) == 4
                assert port.scheduler.weight(0) == 1  # default


class TestQpWindowAndAcks:
    def test_window_bounds_outstanding(self):
        topo = single_switch(n_hosts=2).boot()
        rng = SeededRng(91, "win")
        config = QpConfig(window_packets=8)
        qp, _ = connect_qp_pair(
            topo.hosts[0], topo.hosts[1], rng, config_a=config, config_b=config
        )
        post_send(qp, 1 * MB)
        # Sample outstanding repeatedly during the transfer.
        worst = 0
        for _ in range(50):
            topo.sim.run(until=topo.sim.now + 20_000)
            state = qp.audit_state()
            worst = max(worst, state["send_ptr"] - state["una"])
        assert worst <= 8

    def test_ack_coalescing_bounds_ack_count(self):
        topo = single_switch(n_hosts=2).boot()
        rng = SeededRng(92, "ack")
        config = QpConfig(ack_coalesce=16)
        qp, peer = connect_qp_pair(
            topo.hosts[0], topo.hosts[1], rng, config_a=config, config_b=config
        )
        post_send(qp, 1 * MB)  # 1024 packets
        topo.sim.run(until=topo.sim.now + 5 * MS)
        # One ACK per ~16 packets plus the last-segment ACK.
        assert peer.stats.acks_sent <= 1024 // 16 + 4
        assert peer.stats.acks_sent >= 1024 // 16

    def test_backlog_reporting(self):
        topo = single_switch(n_hosts=2).boot()
        rng = SeededRng(93, "bl")
        qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], rng)
        post_send(qp, 64 * KB)
        def backlog_packets():  # enqueued but not yet (re)transmitted
            state = qp.audit_state()
            return state["total_end"] - state["send_ptr"]

        # The NIC pump may grab a couple of packets synchronously.
        assert 60 <= backlog_packets() <= 64
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert backlog_packets() == 0


class TestFabricAggregates:
    def test_total_pause_frames_spans_switches_and_nics(self):
        from repro.switch.buffer import BufferConfig
        from repro.workloads import ClosedLoopSender, RdmaChannel

        topo = single_switch(
            n_hosts=4, buffer_config=BufferConfig(alpha=None, xoff_static_bytes=32 * KB)
        ).boot()
        rng = SeededRng(94, "agg")
        for src in topo.hosts[1:]:
            qp, _ = connect_qp_pair(src, topo.hosts[0], rng)
            ClosedLoopSender(RdmaChannel(qp), 256 * KB).start()
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert topo.fabric.total_pause_frames() >= topo.tor.pause_frames_sent() > 0

    def test_switch_counters_total_drops(self):
        topo = single_switch(n_hosts=2).boot()
        topo.tor.counters.drops["filter"] = 3
        topo.tor.counters.drops["ttl"] = 2
        assert topo.tor.counters.total_drops >= 5

    def test_fabric_repr(self):
        topo = single_switch(n_hosts=2)
        assert "2 hosts" in repr(topo.fabric)


class TestReprSmoke:
    """Reprs are part of the debugging surface; they must not raise."""

    def test_device_layer_reprs(self):
        topo = single_switch(n_hosts=2).boot()
        rng = SeededRng(95, "repr")
        qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], rng)
        post_send(qp, 4 * KB)
        topo.sim.run(until=topo.sim.now + 1 * MS)
        for obj in (
            topo.fabric,
            topo.tor,
            topo.tor.ports[0],
            topo.tor.buffer,
            topo.hosts[0],
            topo.hosts[0].nic.port,
            qp,
            topo.sim,
        ):
            assert repr(obj)

    def test_packet_and_header_reprs(self):
        from repro.packets import (
            Aeth,
            ArpPacket,
            BaseTransportHeader,
            BthOpcode,
            Ipv4Header,
            Packet,
            PfcPauseFrame,
            TcpHeader,
            UdpHeader,
            VlanTag,
        )

        objs = [
            VlanTag(pcp=3, vid=5),
            Ipv4Header(src=1, dst=2),
            UdpHeader(src_port=1, dst_port=2),
            TcpHeader(src_port=1, dst_port=2),
            BaseTransportHeader(opcode=BthOpcode.SEND_ONLY, dest_qp=1, psn=0),
            Aeth(syndrome=0),
            PfcPauseFrame.pause([3]),
            ArpPacket.request(1, 2, 3),
            Packet.pfc_pause(dst_mac=1, src_mac=2, pause=PfcPauseFrame.pause([0])),
        ]
        for obj in objs:
            assert repr(obj)

"""Deeper unit tests for TCP internals and host dispatch."""

import pytest

from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS, US
from repro.tcp import TcpConfig, connect_tcp_pair
from repro.topo import single_switch


def make_pair(topo, **kwargs):
    rng = SeededRng(51, "tcpi")
    return connect_tcp_pair(topo.hosts[0], topo.hosts[1], rng, **kwargs)


class TestRtoBehaviour:
    def test_rto_backs_off_exponentially(self):
        topo = single_switch(n_hosts=2).boot()
        conn_a, _ = make_pair(
            topo,
            config_a=TcpConfig(min_rto_ns=2 * MS, initial_rto_ns=2 * MS, max_rto_ns=64 * MS),
        )
        conn_a.send_message(64 * KB)
        link = topo.fabric.links[0]
        link.set_down()
        topo.sim.run(until=topo.sim.now + 40 * MS)
        # 2 + 4 + 8 + 16 ms of backoff fits ~4 RTOs in 40 ms.
        assert 3 <= conn_a.stats.rtos <= 5
        assert conn_a._rto_ns > 2 * MS  # doubled

    def test_rto_capped_at_max(self):
        topo = single_switch(n_hosts=2).boot()
        conn_a, _ = make_pair(
            topo,
            config_a=TcpConfig(min_rto_ns=1 * MS, initial_rto_ns=1 * MS, max_rto_ns=4 * MS),
        )
        conn_a.send_message(64 * KB)
        topo.fabric.links[0].set_down()
        topo.sim.run(until=topo.sim.now + 60 * MS)
        assert conn_a._rto_ns <= 4 * MS

    def test_cwnd_collapses_to_one_mss_on_rto(self):
        topo = single_switch(n_hosts=2).boot()
        conn_a, _ = make_pair(topo)
        conn_a.send_message(4 * MB)
        # Cut the link mid-transfer so data is outstanding when it dies.
        topo.sim.run(until=topo.sim.now + 200_000)
        topo.fabric.links[0].set_down()
        topo.sim.run(until=topo.sim.now + 30 * MS)
        assert conn_a.stats.rtos >= 1
        assert conn_a.cwnd == conn_a.config.mss_bytes

    def test_srtt_estimated_from_samples(self):
        topo = single_switch(n_hosts=2).boot()
        conn_a, _ = make_pair(topo)
        conn_a.send_message(512 * KB)
        topo.sim.run(until=topo.sim.now + 20 * MS)
        assert conn_a._srtt is not None
        assert 0 < conn_a._srtt < 1 * MS  # one-switch fabric


class TestReassembly:
    def test_out_of_order_segments_buffered_then_delivered(self):
        topo = single_switch(n_hosts=2).boot()
        # Drop one early segment so later ones arrive out of order.
        state = {"dropped": False}

        def drop_once(packet):
            if (
                not state["dropped"]
                and packet.is_tcp
                and packet.payload_bytes > 0
                and packet.context["seq"] > 0
            ):
                state["dropped"] = True
                return True
            return False

        topo.tor.ingress_drop_filter = drop_once
        conn_a, conn_b = make_pair(topo)
        done = []
        conn_a.send_message(128 * KB, on_delivered=done.append)
        topo.sim.run(until=topo.sim.now + 100 * MS)
        assert done
        assert conn_b.rcv_nxt >= 128 * KB

    def test_duplicate_data_is_idempotent(self):
        topo = single_switch(n_hosts=2).boot()
        conn_a, conn_b = make_pair(topo)
        done = []
        conn_a.send_message(32 * KB, on_delivered=done.append)
        topo.sim.run(until=topo.sim.now + 20 * MS)
        rcv = conn_b.rcv_nxt
        # Replay an old in-order segment by hand.
        conn_b._process_data(0, 1460)
        assert conn_b.rcv_nxt == rcv
        assert len(done) == 1

    def test_slow_start_then_congestion_avoidance(self):
        topo = single_switch(n_hosts=2).boot()
        conn_a, _ = make_pair(
            topo, config_a=TcpConfig(initial_cwnd_segments=2, max_cwnd_segments=64)
        )
        start_cwnd = conn_a.cwnd
        conn_a.send_message(1 * MB)
        topo.sim.run(until=topo.sim.now + 20 * MS)
        assert conn_a.cwnd > start_cwnd
        assert conn_a.cwnd <= 64 * conn_a.config.mss_bytes


class TestHostDispatch:
    def test_unmatched_tcp_segment_counted(self):
        topo = single_switch(n_hosts=2).boot()
        conn_a, conn_b = make_pair(topo)
        stack_b = topo.hosts[1].tcp
        # Forge a segment to a port nobody owns.
        packet = conn_a._build_segment(0, 100)
        packet.tcp.dst_port = 9
        packet.context["ack"] = 0
        stack_b._on_packet(packet)
        assert stack_b.unmatched_segments == 1

    def test_unknown_qp_counted(self):
        from repro.rdma import connect_qp_pair, post_send

        topo = single_switch(n_hosts=2).boot()
        rng = SeededRng(52, "uqp")
        qp, peer = connect_qp_pair(topo.hosts[0], topo.hosts[1], rng)
        engine_b = topo.hosts[1].rdma
        del engine_b._qps[peer.qpn]  # the peer QP is gone; its NIC source stays idle
        post_send(qp, 4 * KB)
        topo.sim.run(until=topo.sim.now + 1 * MS)
        assert engine_b.unknown_qp_drops > 0

    def test_dead_host_not_alive(self):
        topo = single_switch(n_hosts=2).boot()
        host = topo.hosts[0]
        assert host.alive
        host.die()
        assert not host.alive
        host.repair()
        assert host.alive

    def test_stack_requires_kernel_or_rng(self):
        from repro.tcp import TcpStack

        topo = single_switch(n_hosts=1).boot()
        with pytest.raises(ValueError):
            TcpStack(topo.hosts[0])

"""Integration tests: RDMA transport end to end over the switch model."""

import pytest

from repro.rdma import GoBack0, GoBackN, QpConfig, connect_qp_pair, post_read, post_send, post_write
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS, US
from repro.topo import single_switch


@pytest.fixture
def topo():
    return single_switch(n_hosts=2).boot()


def make_pair(topo, config_a=None, config_b=None):
    rng = SeededRng(42, "test-qps")
    a, b = topo.hosts[0], topo.hosts[1]
    return connect_qp_pair(a, b, rng, config_a=config_a, config_b=config_b)


class TestBasicTransfer:
    def test_send_completes(self, topo):
        qp_a, qp_b = make_pair(topo)
        done = []
        post_send(qp_a, 64 * KB, on_complete=lambda wr, t: done.append(t))
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert len(done) == 1
        assert qp_a.stats.bytes_completed == 64 * KB

    def test_write_completes(self, topo):
        qp_a, qp_b = make_pair(topo)
        wr = post_write(qp_a, 256 * KB)
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert wr.completed

    def test_read_completes(self, topo):
        qp_a, qp_b = make_pair(topo)
        wr = post_read(qp_b, 128 * KB)  # B reads from A
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert wr.completed
        # The response data flowed A -> B.
        assert qp_a.stats.data_packets_sent >= 128

    def test_receiver_sees_message(self, topo):
        qp_a, qp_b = make_pair(topo)
        seen = []
        qp_b.on_message = lambda qp, kind, size: seen.append(kind)
        post_send(qp_a, 8 * KB)
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert seen == ["data"]

    def test_multiple_messages_in_order(self, topo):
        qp_a, qp_b = make_pair(topo)
        done = []
        for i in range(5):
            post_send(qp_a, 16 * KB, on_complete=lambda wr, t, i=i: done.append(i))
        topo.sim.run(until=topo.sim.now + 10 * MS)
        assert done == [0, 1, 2, 3, 4]

    def test_throughput_close_to_line_rate(self, topo):
        # 4 MB at 40 Gb/s is ~0.87 ms of wire time (1086 B frames carry
        # 1024 B payload, plus preamble/IPG).  Allow scheduling slack.
        qp_a, qp_b = make_pair(topo)
        wr = post_send(qp_a, 4 * MB)
        start = topo.sim.now
        topo.sim.run(until=start + 3 * MS)
        assert wr.completed
        elapsed = wr.completed_ns - start
        goodput_gbps = 4 * MB * 8 / elapsed  # bits per ns == Gb/s
        assert goodput_gbps > 30

    def test_transfer_exact_packet_count(self, topo):
        qp_a, qp_b = make_pair(topo)
        post_send(qp_a, 4 * MB)
        topo.sim.run(until=topo.sim.now + 3 * MS)
        # ceil(4 MiB / 1024) = 4096 packets, no loss -> no retransmits.
        assert qp_a.stats.data_packets_sent == 4096
        assert qp_a.stats.retransmitted_packets == 0

    def test_non_mtu_multiple_size(self, topo):
        qp_a, qp_b = make_pair(topo)
        sizes = []
        qp_b.on_message = lambda qp, kind, size: sizes.append(size)
        wr = post_send(qp_a, 2500)  # 1024 + 1024 + 452
        topo.sim.run(until=topo.sim.now + 1 * MS)
        assert wr.completed
        assert sizes == [452]  # last-segment payload

    def test_one_byte_message(self, topo):
        qp_a, qp_b = make_pair(topo)
        wr = post_send(qp_a, 1)
        topo.sim.run(until=topo.sim.now + 1 * MS)
        assert wr.completed


class TestLossRecovery:
    def _lossy_topo(self):
        """The paper's livelock setup: drop every packet whose IP ID ends
        in 0xff (a deterministic 1/256 loss)."""
        topo = single_switch(n_hosts=2).boot()
        topo.tor.ingress_drop_filter = (
            lambda packet: packet.ip is not None
            and packet.ip.identification & 0xFF == 0xFF
        )
        return topo

    def test_go_back_n_survives_deterministic_drop(self):
        topo = self._lossy_topo()
        config = QpConfig(recovery=GoBackN(), rto_ns=200 * US)
        qp_a, qp_b = make_pair(topo, config_a=config, config_b=config)
        wr = post_send(qp_a, 4 * MB)
        topo.sim.run(until=topo.sim.now + 20 * MS)
        assert wr.completed
        assert qp_a.stats.retransmitted_packets > 0
        assert qp_a.stats.naks_received > 0

    def test_go_back_0_livelocks(self):
        topo = self._lossy_topo()
        config = QpConfig(recovery=GoBack0(), rto_ns=200 * US)
        qp_a, qp_b = make_pair(topo, config_a=config, config_b=config)
        wr = post_send(qp_a, 4 * MB)
        topo.sim.run(until=topo.sim.now + 20 * MS)
        # Zero goodput, full effort: the livelock of section 4.1.
        assert not wr.completed
        assert qp_a.stats.bytes_completed == 0
        assert qp_a.stats.data_packets_sent > 4096  # kept the link busy

    def test_go_back_0_completes_small_messages(self):
        # Messages under 256 packets slip between deterministic drops, so
        # go-back-0 is *not* dead for small transfers -- matching the
        # paper's observation that the livelock bites large messages.
        topo = self._lossy_topo()
        config = QpConfig(recovery=GoBack0(), rto_ns=200 * US)
        qp_a, qp_b = make_pair(topo, config_a=config, config_b=config)
        wr = post_send(qp_a, 100 * KB)  # 100 packets
        topo.sim.run(until=topo.sim.now + 20 * MS)
        assert wr.completed

    def test_timeout_recovers_lost_tail(self):
        # Drop exactly one packet: the last of the message, so only the
        # RTO can notice (no later packet triggers a NAK).
        topo = single_switch(n_hosts=2).boot()
        state = {"dropped": False}

        def drop_last(packet):
            if (
                not state["dropped"]
                and packet.bth is not None
                and packet.bth.opcode.name == "SEND_LAST"
            ):
                state["dropped"] = True
                return True
            return False

        topo.tor.ingress_drop_filter = drop_last
        config = QpConfig(recovery=GoBackN(), rto_ns=200 * US)
        qp_a, qp_b = make_pair(topo, config_a=config, config_b=config)
        wr = post_send(qp_a, 8 * KB)
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert wr.completed
        assert qp_a.stats.timeouts >= 1

    def _drop_psn_10(self, copies):
        """Send 64 packets through a ToR that drops PSN 10's first
        ``copies`` transmissions; returns (work request, requester QP)."""
        topo = single_switch(n_hosts=2).boot()
        dropped = []

        def drop(packet):
            ctx = packet.context
            if packet.bth is None or ctx is None or ctx.psn != 10 or len(dropped) >= copies:
                return False
            dropped.append(packet)
            return True

        topo.tor.ingress_drop_filter = drop
        config = QpConfig(recovery=GoBackN(), rto_ns=200 * US)
        qp_a, qp_b = make_pair(topo, config_a=config, config_b=config)
        wr = post_send(qp_a, 64 * KB)
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert wr.completed and len(dropped) == copies
        return wr, qp_a

    def test_rewound_head_lost_again_is_naked_again(self):
        # The first loss opens a gap and draws a NAK; the go-back-N resend
        # of the head is lost too, and the rest of the resent window steps
        # back below the gap's last PSN -- a second NAK, not the RTO.
        wr, qp_a = self._drop_psn_10(2)
        assert qp_a.stats.naks_received == 2
        assert qp_a.stats.timeouts == 0
        assert wr.completed_ns - wr.posted_ns < 200 * US

    def test_a_gap_draws_at_most_two_naks_then_the_rto(self):
        # A third loss of the same head is congestion-like: the responder
        # stays silent and the RTO's backoff resends it.
        wr, qp_a = self._drop_psn_10(3)
        assert qp_a.stats.naks_received == 2
        assert qp_a.stats.timeouts == 1

    def test_random_link_loss_recovered(self):
        topo = single_switch(n_hosts=2, seed=3).boot()
        # Make the server->ToR link lossy at 0.5%.
        link = topo.fabric.links[0]
        link.loss_rate = 0.005
        link._loss_rng = SeededRng(9, "loss")
        config = QpConfig(recovery=GoBackN(), rto_ns=200 * US)
        qp_a, qp_b = make_pair(topo, config_a=config, config_b=config)
        wr = post_send(qp_a, 2 * MB)
        topo.sim.run(until=topo.sim.now + 50 * MS)
        assert wr.completed


class TestFabricBasics:
    def test_no_drops_on_clean_fabric(self, topo):
        qp_a, qp_b = make_pair(topo)
        post_send(qp_a, 1 * MB)
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert topo.fabric.total_drops() == 0

    def test_arp_tables_populated_after_boot(self, topo):
        for host in topo.hosts:
            assert topo.tor.tables.arp_table.lookup(host.ip) == host.mac
            assert topo.tor.tables.mac_table.lookup(host.mac) is not None

    def test_bidirectional_traffic(self, topo):
        qp_a, qp_b = make_pair(topo)
        wr_a = post_send(qp_a, 512 * KB)
        wr_b = post_send(qp_b, 512 * KB)
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert wr_a.completed and wr_b.completed

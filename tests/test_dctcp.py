"""Tests for the DCTCP extension on the TCP baseline."""

import pytest

from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS
from repro.switch.buffer import BufferConfig
from repro.switch.ecn import EcnConfig
from repro.tcp import TcpConfig, connect_tcp_pair
from repro.topo import single_switch


def ecn_fabric(seed=31, kmin=10, kmax=40):
    return single_switch(
        n_hosts=5,
        seed=seed,
        buffer_config=BufferConfig(
            alpha=None, xoff_static_bytes=96 * KB, lossy_egress_cap_bytes=128 * KB
        ),
        ecn_config=EcnConfig(kmin_bytes=kmin * KB, kmax_bytes=kmax * KB, pmax=0.5),
    ).boot()


def dctcp_config(**kwargs):
    kwargs.setdefault("ecn_enabled", True)
    return TcpConfig(**kwargs)


class TestDctcpMechanics:
    def test_segments_are_ect_when_enabled(self):
        from repro.packets.ip import ECN_ECT0, ECN_NOT_ECT

        topo = ecn_fabric()
        rng = SeededRng(31, "dctcp")
        conn_dctcp, _ = connect_tcp_pair(
            topo.hosts[0], topo.hosts[1], rng,
            config_a=dctcp_config(), config_b=dctcp_config(),
        )
        conn_reno, _ = connect_tcp_pair(
            topo.hosts[2], topo.hosts[3], rng,
            config_a=TcpConfig(), config_b=TcpConfig(),
        )
        assert conn_dctcp._build_segment(0, 1000).ip.ecn == ECN_ECT0
        assert conn_reno._build_segment(0, 1000).ip.ecn == ECN_NOT_ECT
        # Pure ACKs are never ECT (standard DCTCP practice).
        assert conn_dctcp._build_segment(0, 0).ip.ecn == ECN_NOT_ECT

    def test_ce_marks_echoed_and_alpha_rises(self):
        topo = ecn_fabric()
        rng = SeededRng(32, "dctcp")
        victim = topo.hosts[0]
        connections = []
        for src in topo.hosts[1:]:
            conn, _ = connect_tcp_pair(
                src, victim, rng, config_a=dctcp_config(), config_b=dctcp_config()
            )
            conn.send_message(2 * MB)
            connections.append(conn)
        topo.sim.run(until=topo.sim.now + 50 * MS)
        assert any(c.stats.ce_acks > 0 for c in connections)
        assert any(c._dctcp_alpha > 0 for c in connections)
        assert any(c.stats.dctcp_cuts > 0 for c in connections)

    def test_reno_ignores_marks(self):
        topo = ecn_fabric()
        rng = SeededRng(33, "reno")
        conn, _ = connect_tcp_pair(
            topo.hosts[0], topo.hosts[1], rng,
            config_a=TcpConfig(), config_b=TcpConfig(),
        )
        conn.send_message(2 * MB)
        topo.sim.run(until=topo.sim.now + 50 * MS)
        assert conn.stats.ce_acks == 0
        assert conn._dctcp_alpha == 0.0

    def test_transfer_still_completes_with_dctcp(self):
        topo = ecn_fabric()
        rng = SeededRng(34, "done")
        done = []
        conn, _ = connect_tcp_pair(
            topo.hosts[0], topo.hosts[1], rng,
            config_a=dctcp_config(), config_b=dctcp_config(),
        )
        conn.send_message(4 * MB, on_delivered=done.append)
        topo.sim.run(until=topo.sim.now + 200 * MS)
        assert done


class TestDctcpVsReno:
    def test_dctcp_cuts_incast_drops(self):
        """DCTCP's raison d'etre: react to marks before the queue
        overflows, so incast drops (and the RTO tail) shrink."""

        def run(ecn):
            topo = ecn_fabric(seed=35)
            rng = SeededRng(35, "cmp")
            victim = topo.hosts[0]
            config = dctcp_config() if ecn else TcpConfig()
            for src in topo.hosts[1:]:
                conn, _ = connect_tcp_pair(
                    src, victim, rng,
                    config_a=dctcp_config() if ecn else TcpConfig(),
                    config_b=dctcp_config() if ecn else TcpConfig(),
                )
                for _ in range(4):
                    conn.send_message(512 * KB)
            topo.sim.run(until=topo.sim.now + 100 * MS)
            return (
                topo.tor.counters.drops["egress-lossy"]
                + topo.tor.counters.drops["buffer-lossy"]
            )

        drops_reno = run(False)
        drops_dctcp = run(True)
        assert drops_dctcp < drops_reno

"""Tests for the staged rollout procedure (paper section 6.1)."""

import pytest

from repro.core.deployment import StagedRollout
from repro.packets.pause import pause_quanta_to_ns
from repro.rdma import connect_qp_pair
from repro.sim import SeededRng
from repro.sim.units import MB, MS
from repro.switch.buffer import BufferConfig
from repro.topo import three_tier_clos
from repro.workloads import ClosedLoopSender, RdmaChannel


def make_rollout(seed=71):
    topo = three_tier_clos(
        n_podsets=2,
        tors_per_podset=2,
        hosts_per_tor=2,
        leaves_per_podset=2,
        n_spines=2,
        seed=seed,
    ).boot()
    return StagedRollout(topo, SeededRng(seed, "rollout"))


class TestStagedRollout:
    def test_full_healthy_rollout(self):
        rollout = make_rollout()
        reports = rollout.run_to_completion()
        assert [r.stage for r in reports] == ["tor-only", "podset", "spine"]
        assert all(r.passed for r in reports)
        assert rollout.stage == "spine"
        # Full scope: every switch carries lossless traffic.
        assert all(s.pfc_config.enabled for s in rollout.topo.fabric.switches)

    def test_tor_only_scope(self):
        rollout = make_rollout()
        report = rollout.advance()
        assert report.passed
        assert rollout.stage == "tor-only"
        tors = [t for p in rollout.topo.podsets for t in p["tors"]]
        leaves = [l for p in rollout.topo.podsets for l in p["leaves"]]
        assert all(t.pfc_config.enabled for t in tors)
        assert not any(l.pfc_config.enabled for l in leaves)
        assert not any(s.pfc_config.enabled for s in rollout.topo.spines)

    def test_allowed_pairs_widen_with_stage(self):
        rollout = make_rollout()
        tor_pairs = rollout.allowed_pairs("tor-only")
        podset_pairs = rollout.allowed_pairs("podset")
        spine_pairs = rollout.allowed_pairs("spine")
        assert len(tor_pairs) < len(podset_pairs) < len(spine_pairs)
        # ToR-only pairs stay under one ToR (same /24).
        assert all((a.ip >> 8) == (b.ip >> 8) for a, b in tor_pairs)
        # Spine stage allows cross-podset pairs.
        assert any((a.ip >> 16) != (b.ip >> 16) for a, b in spine_pairs)

    def test_failed_gate_rolls_back(self):
        rollout = make_rollout()
        assert rollout.advance().passed  # tor-only
        # Sabotage the next gate: kill a host the podset probes will hit
        # (the first sampled pair's destination).
        victim = rollout.allowed_pairs("podset")[0][1]
        victim.die()
        report = rollout.advance()
        assert not report.passed
        assert report.probe_errors > 0
        # Scope rolled back: leaves are lossless-disabled again.
        assert rollout.stage == "tor-only"
        leaves = [l for p in rollout.topo.podsets for l in p["leaves"]]
        assert not any(l.pfc_config.enabled for l in leaves)

    def test_cannot_advance_past_full_scope(self):
        rollout = make_rollout()
        rollout.run_to_completion()
        with pytest.raises(RuntimeError):
            rollout.advance()

    def test_reports_accumulate(self):
        rollout = make_rollout()
        rollout.run_to_completion()
        assert len(rollout.reports) == 3
        assert all(r.probes > 0 for r in rollout.reports)


class TestRollbackReleasesPauses:
    def test_rollback_does_not_strand_a_pausing_pg(self):
        """A failed gate disables PFC on switches that may be asserting
        pause at that moment.  Such a PG must let go -- XON upstream,
        no more refreshes -- or the rollback itself becomes the section
        4.3 storm: the upstream port stays paused for good.

        A frozen receiver holds the podset back-pressured through the
        whole gate, so a leaf PG is asserting when the scope rolls back
        to ToR-only."""
        topo = three_tier_clos(
            n_podsets=2,
            tors_per_podset=2,
            hosts_per_tor=3,
            leaves_per_podset=2,
            n_spines=2,
            seed=72,
            buffer_config=BufferConfig(alpha=1.0 / 64),
        ).boot()
        sim = topo.sim
        rollout = StagedRollout(topo, SeededRng(72, "rollout"), gate_duration_ns=2 * MS)
        assert rollout.advance().passed  # tor-only
        near, far = topo.podsets[0]["hosts_by_tor"]
        probed = rollout.allowed_pairs("podset")[0][1]
        receiver = far[0]
        rng = SeededRng(72, "traffic")
        for src in near:
            if src is not probed:
                qp, _ = connect_qp_pair(src, receiver, rng)
                ClosedLoopSender(RdmaChannel(qp), 4 * MB).start()
        receiver.nic.break_rx_pipeline()
        probed.die()  # fails the podset gate
        assert not rollout.advance().passed
        assert rollout.stage == "tor-only"

        leaves = topo.podsets[0]["leaves"]
        assert not any(leaf.pfc_config.enabled for leaf in leaves)
        asserting = [
            (leaf, leaf.ports[port_idx], priority, state)
            for leaf in leaves
            for port_idx, priority, state in leaf.buffer.iter_pgs()
            if state.paused
        ]
        assert asserting, "scenario no longer has a leaf PG asserting at rollback"
        for _leaf, port, priority, _state in asserting:
            assert port.peer.is_paused(priority)
        pauses_at_rollback = [leaf.pause_frames_sent() for leaf in leaves]
        resumes_at_rollback = sum(p.stats.resume_tx for leaf in leaves for p in leaf.ports)

        quanta = leaves[0].pfc_config.pause_quanta
        refresh_ns = pause_quanta_to_ns(quanta, asserting[0][1].link.rate_bps) // 2
        sim.run(until=sim.now + refresh_ns)
        for leaf, port, priority, state in asserting:
            assert not state.paused
            assert not port.peer.is_paused(priority)
            assert leaf.buffer.paused_pgs == 0
        assert sum(p.stats.resume_tx for leaf in leaves for p in leaf.ports) == (
            resumes_at_rollback + len(asserting)
        )
        # ... and stays let go: ten more refresh periods, not one more XOFF.
        sim.run(until=sim.now + 10 * refresh_ns)
        assert [leaf.pause_frames_sent() for leaf in leaves] == pauses_at_rollback
        for _leaf, port, priority, _state in asserting:
            assert not port.peer.is_paused(priority)

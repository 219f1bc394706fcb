"""Tests for the completion queue, the packet tracer and the CLI."""

import json
import os

import pytest

from repro.__main__ import main
from repro.rdma import CompletionQueue, WorkCompletion, connect_qp_pair, post_read, post_send
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS
from repro.topo import single_switch
from repro.tracing import PacketTracer, summarize


class TestCompletionQueue:
    def test_poll_returns_completions_in_order(self):
        topo = single_switch(n_hosts=2).boot()
        rng = SeededRng(1, "cq")
        qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], rng)
        cq = CompletionQueue()
        first = post_send(qp, 16 * KB, cq=cq)
        second = post_send(qp, 16 * KB, cq=cq)
        topo.sim.run(until=topo.sim.now + 5 * MS)
        completions = cq.poll(16)
        assert [wc.wr_id for wc in completions] == [first.wr_id, second.wr_id]
        assert all(wc.ok for wc in completions)
        assert all(wc.kind == "send" for wc in completions)
        assert len(cq) == 0

    def test_poll_respects_max_entries(self):
        topo = single_switch(n_hosts=2).boot()
        rng = SeededRng(2, "cq")
        qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], rng)
        cq = CompletionQueue()
        for _ in range(5):
            post_send(qp, 4 * KB, cq=cq)
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert len(cq.poll(2)) == 2
        assert len(cq) == 3

    def test_overflow_counted(self):
        cq = CompletionQueue(capacity=1)
        assert cq.push(WorkCompletion(1, "send", 10, 0))
        assert not cq.push(WorkCompletion(2, "send", 10, 0))
        assert cq.overflows == 1

    def test_cq_and_callback_compose(self):
        topo = single_switch(n_hosts=2).boot()
        rng = SeededRng(3, "cq")
        qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], rng)
        cq = CompletionQueue()
        called = []
        post_read(qp, 8 * KB, on_complete=lambda wr, t: called.append(wr.wr_id), cq=cq)
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert called
        assert cq.poll(1)[0].kind == "read"

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CompletionQueue(capacity=0)


class TestPacketTracer:
    def _traced_run(self):
        topo = single_switch(n_hosts=2).boot()
        tracer = PacketTracer(topo.sim).attach_all(topo.fabric)
        rng = SeededRng(4, "trace")
        qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], rng)
        post_send(qp, 32 * KB)
        topo.sim.run(until=topo.sim.now + 2 * MS)
        return topo, tracer

    def test_captures_data_and_acks(self):
        topo, tracer = self._traced_run()
        rocev2 = tracer.select(kind="rocev2")
        assert len(rocev2) > 32
        opcodes = {r.fields["opcode"] for r in rocev2}
        assert "SEND_FIRST" in opcodes and "ACKNOWLEDGE" in opcodes

    def test_psns_are_sequential_on_clean_run(self):
        # Per hop, a clean run emits strictly increasing PSNs (frames
        # from different hops interleave in global capture order).
        topo, tracer = self._traced_run()
        by_hop = {}
        for record in tracer.select(kind="rocev2"):
            if record.fields["opcode"].startswith("SEND"):
                by_hop.setdefault(record.src_port, []).append(record.fields["psn"])
        assert by_hop
        for psns in by_hop.values():
            assert psns == sorted(psns)

    def test_select_filters(self):
        topo, tracer = self._traced_run()
        assert tracer.select(kind="pause") == []
        assert len(tracer.select(link="S0")) > 0
        late = tracer.select(since_ns=topo.sim.now)
        assert late == []

    def test_counts_by_kind(self):
        topo, tracer = self._traced_run()
        counts = tracer.counts_by_kind()
        assert counts.get("rocev2", 0) > 0

    def test_jsonl_round_trip(self, tmp_path):
        topo, tracer = self._traced_run()
        path = tracer.to_jsonl(str(tmp_path / "trace.jsonl"))
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        assert len(lines) == len(tracer)
        assert all("t_ns" in line and "kind" in line for line in lines)

    def test_max_records_cap(self):
        topo = single_switch(n_hosts=2).boot()
        tracer = PacketTracer(topo.sim, max_records=10).attach_all(topo.fabric)
        rng = SeededRng(5, "cap")
        qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], rng)
        post_send(qp, 256 * KB)
        topo.sim.run(until=topo.sim.now + 2 * MS)
        assert len(tracer) == 10
        assert tracer.dropped_records > 0

    def test_tracing_does_not_change_outcome(self):
        def run(traced):
            topo = single_switch(n_hosts=2, seed=6).boot()
            if traced:
                PacketTracer(topo.sim).attach_all(topo.fabric)
            rng = SeededRng(6, "iso")
            qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], rng)
            wr = post_send(qp, 64 * KB)
            topo.sim.run(until=topo.sim.now + 2 * MS)
            return wr.completed_ns

        assert run(False) == run(True)

    def test_pause_frames_decoded(self):
        from repro.switch.buffer import BufferConfig
        from repro.workloads import ClosedLoopSender, RdmaChannel

        topo = single_switch(
            n_hosts=4, buffer_config=BufferConfig(alpha=None, xoff_static_bytes=32 * KB)
        ).boot()
        tracer = PacketTracer(topo.sim).attach_all(topo.fabric)
        rng = SeededRng(7, "pause")
        for src in topo.hosts[1:]:
            qp, _ = connect_qp_pair(src, topo.hosts[0], rng)
            ClosedLoopSender(RdmaChannel(qp), 256 * KB).start()
        topo.sim.run(until=topo.sim.now + 3 * MS)
        pauses = tracer.select(kind="pause")
        assert pauses
        assert any(r.fields["paused"] for r in pauses)


class TestSummarize:
    def test_tcp_summary(self):
        from repro.packets import Ipv4Header, Packet, TcpHeader

        packet = Packet.tcp_segment(
            dst_mac=1,
            src_mac=2,
            ip=Ipv4Header(src=1, dst=2, protocol=6),
            tcp=TcpHeader(src_port=9, dst_port=10, seq=5),
            payload_bytes=100,
        )
        kind, fields = summarize(packet)
        assert kind == "tcp"
        assert fields["seq"] == 5
        assert fields["payload"] == 100


class TestCli:
    """The experiment verbs of ``python -m repro``."""

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "run_livelock" in out

    def test_run_by_id_with_csv(self, tmp_path, capsys):
        assert main(["run", "E10", "--inline", "--no-cache", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "csv" / "E10.csv").exists()
        out = capsys.readouterr().out
        assert "CPU overhead" in out

    def test_run_by_fragment(self, tmp_path, capsys):
        assert main(["run", "headroom", "--inline", "--no-cache", "--out", str(tmp_path)]) == 0
        assert "lossless_classes" in capsys.readouterr().out

    def test_unknown_token(self, tmp_path, capsys):
        assert main(["run", "zzz-no-such", "--out", str(tmp_path / "c")]) == 2

"""Smoke tests: every experiment runner produces its paper-shaped rows.

Durations are cut to the minimum that still shows each phenomenon, so
this file doubles as a fast end-to-end regression of the reproduction
(``python -m repro run`` judges the full-length versions).  A shape the
paper claims is looked up by name among the catalogue entry's own
verdicts on the short run's rows (:func:`verdicts`), never restated
here; the asserts that remain read rows a claim does not (a partial
run), or a column no claim reads.
"""

from repro.experiments import (
    run_buffer_misconfig,
    run_clos_throughput,
    run_congestion_latency,
    run_cpu_overhead,
    run_deadlock,
    run_dscp_vs_vlan,
    run_headroom,
    run_livelock,
    run_slow_receiver,
)
from repro.experiments.catalog import CATALOG
from repro.sim.units import MS


def verdicts(exp_id, result):
    """Name -> passed for the catalogue entry's paper claims on ``result``."""
    return dict(CATALOG[exp_id].judge(result.rows()))


class TestLivelockSmoke:
    def test_send_only_short_run(self):
        result = run_livelock(duration_ns=4 * MS, operations=("send",))
        rows = {r["recovery"]: r for r in result.rows()}
        assert rows["go-back-0"]["goodput_gbps"] == 0.0
        assert rows["go-back-n"]["goodput_gbps"] > 10

    def test_format_table_renders(self):
        result = run_livelock(duration_ns=2 * MS, operations=("send",))
        table = result.format_table()
        assert "go-back-0" in table
        assert "goodput_gbps" in table


class TestDeadlockSmoke:
    def test_flooding_deadlocks_and_fix_prevents(self):
        claims = verdicts("E2", run_deadlock(duration_ns=6 * MS))
        assert claims["flooding deadlocks"]
        assert claims["the ARP-drop fix does not deadlock"]
        assert claims["the fix drops on incomplete ARP"]


class TestClosSmoke:
    def test_flow_level_only(self):
        result = run_clos_throughput(seeds=(1,), packet_level_check=False)
        row = result.rows()[0]
        assert 0.5 < row["utilization"] < 0.75
        assert row["maxmin_utilization"] >= row["utilization"]


class TestSlowReceiverSmoke:
    def test_page_size_contrast(self):
        claims = verdicts("E7", run_slow_receiver(duration_ns=4 * MS))
        assert claims["4KB static: NIC pauses > 5/ms"]
        assert claims["2MB static: NIC does not pause"]


class TestBufferMisconfigSmoke:
    def test_alpha_contrast(self):
        claims = verdicts("E8", run_buffer_misconfig(duration_ns=10 * MS))
        assert claims["1/16: ToR pauses < 1/10 of 1/64"]
        assert claims["1/64: one config drift"]


class TestDscpVsVlanSmoke:
    def test_both_failure_modes(self):
        claims = verdicts("E9", run_dscp_vs_vlan())
        assert claims["vlan: PXE boot breaks on the trunk port"]
        assert claims["dscp: PXE boot succeeds"]
        assert claims["vlan: RDMA dropped across subnets"]
        assert claims["dscp: no RDMA drop across subnets"]


class TestAnalyticExperiments:
    def test_cpu_overhead_rows(self):
        claims = verdicts("E10", run_cpu_overhead())
        assert claims["40G: tcp send CPU ~6%"]
        assert claims["40G: rdma CPU is zero"]

    def test_headroom_two_classes(self):
        assert verdicts("E11", run_headroom())["40G: two lossless classes"]


class TestCongestionLatencySmoke:
    def test_loaded_phase_inflates_tail(self):
        claims = verdicts("E6", run_congestion_latency(phase_ns=15 * MS))
        assert claims["rdma p99 jumps > 4x"]
        assert claims["loaded: zero drops"]

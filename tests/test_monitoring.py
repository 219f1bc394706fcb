"""Tests for monitoring: config drift, pingmesh, and the paper's counter
collection and pause-storm diagnosis as the telemetry session runs them."""

import pytest

from repro import telemetry
from repro.monitoring import (
    ConfigMonitor,
    DesiredConfig,
    Pingmesh,
    read_probe_jsonl,
    summarize_probe_records,
)
from repro.monitoring.pingmesh import ProbeResult
from repro.packets.packet import PriorityMode
from repro.rdma import connect_qp_pair, post_send
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS, US
from repro.switch.buffer import BufferConfig
from repro.switch.pfc import PfcConfig
from repro.telemetry import TelemetrySession
from repro.topo import single_switch
from repro.workloads import ClosedLoopSender, RdmaChannel


@pytest.fixture(autouse=True)
def _hub_hygiene():
    """Hand-started sessions retire into the hub; leave it empty."""
    yield
    telemetry.disarm()
    telemetry.drain()


def desired():
    return DesiredConfig(
        priority_mode=PriorityMode.DSCP,
        lossless_priorities=frozenset((3, 4)),
        buffer_alpha=1.0 / 16,
    )


class TestConfigMonitor:
    def test_compliant_fabric_reports_nothing(self):
        topo = single_switch(n_hosts=2).boot()
        assert ConfigMonitor(desired()).check_fabric(topo.fabric) == []

    def test_alpha_drift_detected(self):
        # The section 6.2 incident class: one switch running 1/64.
        topo = single_switch(n_hosts=2, buffer_config=BufferConfig(alpha=1.0 / 64)).boot()
        drifts = ConfigMonitor(desired()).check_fabric(topo.fabric)
        assert any(d.field == "buffer_alpha" and d.running == 1.0 / 64 for d in drifts)

    def test_priority_mode_drift_detected(self):
        topo = single_switch(
            n_hosts=2, pfc_config=PfcConfig(priority_mode=PriorityMode.VLAN)
        ).boot()
        drifts = ConfigMonitor(desired()).check_fabric(topo.fabric)
        fields = {d.field for d in drifts}
        assert "priority_mode" in fields

    def test_lossless_priority_drift_on_host(self):
        topo = single_switch(n_hosts=1, pfc_config=PfcConfig(lossless_priorities=(3,))).boot()
        drifts = ConfigMonitor(desired()).check_fabric(topo.fabric)
        assert any(d.device.startswith("S0") for d in drifts)

    def test_drift_from_design(self):
        from repro.core import DscpPfcDesign

        config = DesiredConfig.from_design(DscpPfcDesign(lossless_priorities=(3, 4)))
        topo = single_switch(n_hosts=1).boot()
        assert ConfigMonitor(config).check_fabric(topo.fabric) == []


class TestCounterCollection:
    """Section 5: counters polled from every switch and server."""

    def test_session_collects_nondecreasing_series(self):
        topo = single_switch(n_hosts=2).boot()
        session = TelemetrySession(topo.fabric).start()
        rng = SeededRng(1, "cc")
        qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], rng)
        post_send(qp, 1 * MB)
        topo.sim.run(until=topo.sim.now + 5 * MS)
        session.stop()
        samples = [r for r in session.records if r["type"] == "sample"]
        series = [(r["t_ns"], r["values"]["rx_bytes"])
                  for r in samples if r["device"] == "T0"]
        assert len(series) >= 4
        values = [value for _t_ns, value in series]
        assert values == sorted(values) and values[-1] > 0
        sampled = {r["device"] for r in samples}
        assert {"T0", "S0.nic", "S1.nic"} <= sampled


class TestPingmesh:
    def test_probes_record_rtt(self):
        topo = single_switch(n_hosts=2).boot()
        rng = SeededRng(2, "pm")
        pingmesh = Pingmesh(topo.sim, rng, interval_ns=1 * MS)
        pingmesh.add_pair(topo.hosts[0], topo.hosts[1])
        pingmesh.start()
        topo.sim.run(until=topo.sim.now + 10 * MS)
        pingmesh.stop()
        assert len(pingmesh.rtts_ns()) >= 5
        assert pingmesh.error_rate() == 0.0
        assert pingmesh.rtt_percentile_us(50) > 0

    def test_full_mesh_pairs(self):
        topo = single_switch(n_hosts=3).boot()
        rng = SeededRng(2, "pm")
        pingmesh = Pingmesh(topo.sim, rng, interval_ns=1 * MS)
        pingmesh.add_full_mesh(topo.hosts)
        assert len(pingmesh._pairs) == 6  # 3x2 directed pairs

    def test_dead_destination_logs_timeouts(self):
        # The paper: "logs the measured RTT (if probes succeed) or error
        # code (if probes fail)" -- this is how dead paths are inferred.
        topo = single_switch(n_hosts=2).boot()
        rng = SeededRng(2, "pm")
        pingmesh = Pingmesh(topo.sim, rng, interval_ns=1 * MS)
        pingmesh.add_pair(topo.hosts[0], topo.hosts[1])
        topo.hosts[1].die()
        pingmesh.start()
        topo.sim.run(until=topo.sim.now + 10 * MS)
        assert pingmesh.error_rate() > 0.5


class TestPingmeshSummary:
    """The operator view: percentiles, error breakdown, JSONL export."""

    def _results(self):
        results = [
            ProbeResult(t_ns=i * 1000, src="H0", dst="H1", rtt_ns=(i + 1) * 1000)
            for i in range(9)
        ]
        results.append(ProbeResult(t_ns=99, src="H0", dst="H2", error="timeout"))
        results.append(ProbeResult(t_ns=100, src="H0", dst="H2", error="timeout"))
        results.append(ProbeResult(t_ns=101, src="H0", dst="H3", error="rnr_nak"))
        return results

    def _pingmesh(self):
        pingmesh = Pingmesh.__new__(Pingmesh)
        pingmesh.results = self._results()
        return pingmesh

    def test_summary_shape_and_percentiles(self):
        summary = self._pingmesh().summary()
        assert summary["probes"] == 12
        assert summary["ok"] == 9
        assert summary["error_rate"] == pytest.approx(3 / 12)
        rtt = summary["rtt_us"]
        # 1..9 us samples: p50 interpolates to 5 us exactly.
        assert rtt["count"] == 9
        assert rtt["p50"] == pytest.approx(5.0)
        assert rtt["p90"] <= rtt["p99"] <= rtt["p999"] <= 9.0

    def test_error_breakdown(self):
        breakdown = self._pingmesh().error_breakdown()
        assert breakdown == {"timeout": 2, "rnr_nak": 1}

    def test_jsonl_round_trip(self, tmp_path):
        pingmesh = self._pingmesh()
        path = pingmesh.to_jsonl(str(tmp_path / "probes.jsonl"))
        records = read_probe_jsonl(path)
        assert len(records) == len(pingmesh.results)
        assert records[0] == pingmesh.results[0].as_record()
        # Offline summary of the export matches the online view.
        assert summarize_probe_records(records) == pingmesh.summary()

    def test_empty_summary(self):
        summary = summarize_probe_records([])
        assert summary["probes"] == 0
        assert summary["error_rate"] == 0.0
        assert summary["rtt_us"]["p50"] is None

    def test_all_failed_summary(self):
        summary = summarize_probe_records(
            [{"t_ns": 0, "src": "a", "dst": "b", "rtt_ns": None,
              "error": "timeout"}]
        )
        assert summary["error_rate"] == 1.0
        assert summary["rtt_us"]["count"] == 0

    def test_live_run_summary(self):
        topo = single_switch(n_hosts=2).boot()
        pingmesh = Pingmesh(topo.sim, SeededRng(2, "pm"), interval_ns=1 * MS)
        pingmesh.add_pair(topo.hosts[0], topo.hosts[1])
        pingmesh.start()
        topo.sim.run(until=topo.sim.now + 10 * MS)
        pingmesh.stop()
        summary = pingmesh.summary()
        assert summary["ok"] == len(pingmesh.rtts_ns())
        assert summary["rtt_us"]["p50"] == pytest.approx(
            pingmesh.rtt_percentile_us(50)
        )


class TestPauseStormDiagnosis:
    """Section 6.2: "trace down the origin of the PFC pause frames to a
    single server".  (Window, min-windows, still-open-at-finish and
    host-before-switch semantics are pinned on ``PauseStormDetector`` in
    tests/test_telemetry.py.)"""

    def test_traces_storm_to_origin(self):
        topo = single_switch(n_hosts=3, buffer_config=BufferConfig(
            alpha=None, xoff_static_bytes=48 * KB)).boot()
        session = TelemetrySession(topo.fabric).start()
        victim = topo.hosts[0]
        victim.nic.break_rx_pipeline()
        rng = SeededRng(5, "storm")
        qp, _ = connect_qp_pair(topo.hosts[1], victim, rng)
        ClosedLoopSender(RdmaChannel(qp), 1 * MB).start()
        topo.sim.run(until=topo.sim.now + 20 * MS)
        session.stop()
        storms = [i for i in session.incidents if i.kind == "pause_storm"]
        assert [i.device for i in storms] == [victim.nic.name]
        assert storms[0].details["is_host"] and storms[0].severity == "critical"

    def test_quiet_fabric_has_no_incidents(self):
        topo = single_switch(n_hosts=2).boot()
        session = TelemetrySession(topo.fabric).start()
        topo.sim.run(until=topo.sim.now + 5 * MS)
        session.stop()
        assert session.incidents == []

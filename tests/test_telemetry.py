"""Tests for the unified telemetry subsystem (``repro.telemetry``).

Five layers, mirroring the subsystem's structure:

1. **Registry units** -- hook-fed counters and histograms, and the
   declared catalog's internal consistency.
2. **Disabled by default** -- the hub starts dark.  (That a dark or an
   armed run reproduces its ``benchmarks/BASELINE.json`` pin is
   ``tests/test_bench.py`` and ``tests/test_obs.py``'s job.)
3. **Detector semantics** -- synthetic windows driving every detector
   through fire / stay-silent / close transitions, including the
   calibration fact the thresholds encode: healthy congested fabrics
   show heavy *switch* pause rates (no storm) while any sustained *host*
   pause generation is pathological.
4. **End-to-end** -- the §4.3 storm experiment with telemetry armed
   produces pause-storm incidents (and the CLI renders them); the
   healthy ``clos_slice`` scenario stays incident-free; offline replay
   reproduces the online pause-storm verdicts.
5. **One copy of every number** -- every counter and gauge total of an
   armed run is the model counter it names.
"""

import json
import os

import pytest

from repro.__main__ import main
from repro import telemetry
from repro.bench.scenarios import SCENARIOS
from repro.obs import TELEMETRY as HUB
from repro.obs import TRACE
from repro.telemetry.detectors import (
    DetectorThresholds,
    EcnMarkRateDetector,
    PausePropagationDetector,
    PauseStormDetector,
    QueueWatermarkDetector,
    VictimFlowDetector,
)
from repro.telemetry.registry import (
    CATALOG,
    CATALOG_BY_NAME,
    Counter,
    Histogram,
    MetricRegistry,
)
from tests.test_bench import assert_reproduces_pin

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MS = 1_000_000


@pytest.fixture(autouse=True)
def _hub_hygiene():
    """No test may leak an armed hub or live session into the suite."""
    yield
    telemetry.disarm()
    telemetry.drain()
    assert not HUB.enabled and HUB.session is None


# -- 1. registry units -------------------------------------------------------


class TestRegistryPrimitives:
    def test_counter(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_histogram_power_of_two_buckets(self):
        histogram = Histogram()
        for value in (0, 1, 2, 3, 4, 1000):
            histogram.observe(value)
        # 0 -> bucket 0, 1 -> 1, 2..3 -> 2, 4 -> 3, 1000 -> 10.
        assert histogram.buckets == {0: 1, 1: 1, 2: 2, 3: 1, 10: 1}
        assert histogram.count == 6
        assert histogram.total == 1010
        assert histogram.quantile(1.0) == 1024
        assert histogram.quantile(0.0) == 0

    def test_registry_rejects_unknown_metric(self):
        registry = MetricRegistry()
        with pytest.raises(KeyError, match="not in the telemetry catalog"):
            registry.get("made.up_metric", "h0")

    def test_registry_instantiates_per_device(self):
        registry = MetricRegistry()
        a = registry.get("switch.pfc_pause_sent", "T0")
        b = registry.get("switch.pfc_pause_sent", "T1")
        assert a is not b
        a.inc()
        assert registry.snapshot_values() == {
            "switch.pfc_pause_sent|T0": 1,
            "switch.pfc_pause_sent|T1": 0,
        }

    def test_registry_refuses_a_polled_metric(self):
        # A polled metric's one copy is the model counter it reads.
        with pytest.raises(KeyError, match="polled from the model"):
            MetricRegistry().get("port.pause_tx", "T0")


class TestCatalog:
    def test_names_unique_and_indexed(self):
        names = [spec.name for spec in CATALOG]
        assert len(names) == len(set(names))
        assert set(CATALOG_BY_NAME) == set(names)

    def test_kinds_and_metadata_complete(self):
        for spec in CATALOG:
            assert spec.kind in ("counter", "gauge", "histogram"), spec.name
            assert spec.unit, spec.name
            assert spec.source.endswith(".py"), spec.name
            assert spec.help, spec.name

    def test_every_source_module_is_instrumented(self):
        # The catalog's source attributions must point at real modules.
        for spec in CATALOG:
            path = os.path.join(REPO_ROOT, "src", "repro", spec.source)
            assert os.path.exists(path), "%s names missing %s" % (
                spec.name, spec.source)

    def test_every_counter_and_gauge_is_polled(self):
        # Only histograms and what a poll cannot see are hook-fed.
        hook_fed = {spec.name for spec in CATALOG
                    if spec.kind != "histogram" and not spec.reading}
        assert hook_fed == {
            "switch.headroom_spill_bytes", "switch.pfc_pause_sent",
            "switch.pfc_resume_sent", "nic.rx_pipeline_faults"}

    def test_docs_table_lists_the_catalog(self):
        with open(os.path.join(REPO_ROOT, "docs", "telemetry.md")) as handle:
            docs = handle.read()
        for spec in CATALOG:
            assert "| `%s` | %s |" % (spec.name, spec.kind) in docs, spec.name


# -- 2. disabled by default ---------------------------------------------------


class TestDisabledByDefault:
    def test_hub_starts_dark(self):
        assert HUB.enabled is False
        assert HUB.session is None
        assert HUB.armed is None


# -- 3. detector semantics on synthetic windows ------------------------------


def _window(t_ns, devices, interval_ns=MS):
    return {"t_ns": t_ns, "interval_ns": interval_ns, "devices": devices}


def _host(pause_tx=0, paused_ns=0, tx_bytes=10**6, **extra):
    values = {"is_host": True, "pause_tx": pause_tx,
              "paused_ns": paused_ns, "tx_bytes": tx_bytes}
    values.update(extra)
    return values


def _switch(pause_tx=0, ecn_marked=0, shared_in_use=0,
            shared_size=1_000_000, **extra):
    values = {"is_host": False, "pause_tx": pause_tx,
              "ecn_marked": ecn_marked, "shared_in_use": shared_in_use,
              "shared_size": shared_size}
    values.update(extra)
    return values


class TestPauseStormDetector:
    def test_fires_after_min_windows_and_closes(self):
        detector = PauseStormDetector(DetectorThresholds())
        # 2 pauses/ms = 2000/s, the empirical broken-NIC refresh rate.
        detector.observe(_window(1 * MS, {"nic": _host(pause_tx=2)}))
        assert detector.active_devices() == set()  # one window is not a storm
        detector.observe(_window(2 * MS, {"nic": _host(pause_tx=3)}))
        assert detector.active_devices() == {"nic"}
        detector.observe(_window(3 * MS, {"nic": _host(pause_tx=0)}))
        incidents = detector.finish(3 * MS)
        assert len(incidents) == 1
        incident = incidents[0]
        assert incident.kind == "pause_storm"
        assert incident.severity == "critical"  # host storms are critical
        assert incident.end_ns == 3 * MS
        assert incident.details["peak_rate_fps"] == pytest.approx(3000.0)
        assert incident.details["windows"] == 2

    def test_requires_consecutive_windows(self):
        detector = PauseStormDetector(DetectorThresholds())
        detector.observe(_window(1 * MS, {"nic": _host(pause_tx=2)}))
        detector.observe(_window(2 * MS, {"nic": _host(pause_tx=0)}))
        detector.observe(_window(3 * MS, {"nic": _host(pause_tx=2)}))
        assert detector.finish(3 * MS) == []

    def test_healthy_switch_backpressure_is_not_a_storm(self):
        # clos_slice's leaf switches legitimately sustain up to ~180k
        # pause/s from ordinary congestion; the switch threshold must not
        # turn that into incidents.
        detector = PauseStormDetector(DetectorThresholds())
        for i in range(1, 6):
            detector.observe(_window(i * MS, {"leaf": _switch(pause_tx=180)}))
        assert detector.finish(5 * MS) == []

    def test_still_open_incident_is_closed_by_finish(self):
        detector = PauseStormDetector(DetectorThresholds())
        detector.observe(_window(1 * MS, {"nic": _host(pause_tx=2)}))
        detector.observe(_window(2 * MS, {"nic": _host(pause_tx=2)}))
        incidents = detector.finish(2 * MS)
        assert len(incidents) == 1
        assert incidents[0].end_ns == 2 * MS


class TestPausePropagationDetector:
    CHAIN = {"nic": {"tor"}, "tor": {"nic", "leaf"},
             "leaf": {"tor", "spine"}, "spine": {"leaf"}}

    def _stack(self):
        thresholds = DetectorThresholds()
        storm = PauseStormDetector(thresholds)
        return storm, PausePropagationDetector(thresholds, self.CHAIN, storm)

    def test_depth_from_storm_origin(self):
        storm, propagation = self._stack()
        devices = {
            "nic": _host(pause_tx=2, paused_ns=MS),
            "tor": _switch(pause_tx=10, paused_ns=MS),
            "leaf": _switch(pause_tx=10, paused_ns=MS),
            "spine": _switch(pause_tx=10, paused_ns=MS),
        }
        for i in (1, 2, 3):
            window = _window(i * MS, devices)
            storm.observe(window)
            propagation.observe(window)
        incidents = propagation.finish(3 * MS)
        assert len(incidents) == 1
        assert incidents[0].device == "nic"
        assert incidents[0].details["max_depth"] == 3  # tor -> leaf -> spine

    def test_silent_without_a_storm_origin(self):
        # Pause activity everywhere, but no device over its storm
        # threshold: propagation must not attribute depth to healthy
        # backpressure (the clos_slice false-positive class).
        storm, propagation = self._stack()
        devices = {
            "nic": _host(pause_tx=0, paused_ns=MS // 2),
            "tor": _switch(pause_tx=100, paused_ns=MS),
            "leaf": _switch(pause_tx=100, paused_ns=MS),
            "spine": _switch(pause_tx=100, paused_ns=MS),
        }
        for i in (1, 2, 3):
            window = _window(i * MS, devices)
            storm.observe(window)
            propagation.observe(window)
        assert propagation.finish(3 * MS) == []


class TestVictimFlowDetector:
    def _stack(self):
        thresholds = DetectorThresholds()
        storm = PauseStormDetector(thresholds)
        return storm, VictimFlowDetector(thresholds, storm)

    def test_starved_host_flagged_only_during_storm(self):
        storm, victims = self._stack()
        quiet = {
            "origin": _host(pause_tx=0),
            "bystander": _host(paused_ns=MS, tx_bytes=0),
        }
        window = _window(1 * MS, quiet)
        storm.observe(window)
        victims.observe(window)
        assert victims.finish(1 * MS) == []  # paused but no storm: no victim

        storm, victims = self._stack()
        stormy = {
            "origin": _host(pause_tx=2),
            "bystander": _host(paused_ns=MS, tx_bytes=0),
            "healthy": _host(paused_ns=0, tx_bytes=10**6),
        }
        for i in (1, 2, 3):
            window = _window(i * MS, stormy)
            storm.observe(window)
            victims.observe(window)
        incidents = victims.finish(3 * MS)
        assert [i.device for i in incidents] == ["bystander"]
        assert incidents[0].details["origins"] == ["origin"]
        assert incidents[0].details["paused_fraction"] == pytest.approx(1.0)

    def test_origin_is_never_its_own_victim(self):
        storm, victims = self._stack()
        devices = {"origin": _host(pause_tx=2, paused_ns=MS, tx_bytes=0)}
        for i in (1, 2, 3):
            window = _window(i * MS, devices)
            storm.observe(window)
            victims.observe(window)
        assert victims.finish(3 * MS) == []


class TestEcnAndWatermarkDetectors:
    def test_ecn_rate_fires_after_sustained_windows(self):
        detector = EcnMarkRateDetector(DetectorThresholds())
        detector.observe(_window(1 * MS, {"tor": _switch(ecn_marked=300)}))
        detector.observe(_window(2 * MS, {"tor": _switch(ecn_marked=400)}))
        detector.observe(_window(3 * MS, {"tor": _switch(ecn_marked=0)}))
        incidents = detector.finish(3 * MS)
        assert len(incidents) == 1
        assert incidents[0].kind == "ecn_mark_rate"
        assert incidents[0].details["peak_rate_mps"] == pytest.approx(400000.0)

    def test_ecn_single_window_spike_ignored(self):
        detector = EcnMarkRateDetector(DetectorThresholds())
        detector.observe(_window(1 * MS, {"tor": _switch(ecn_marked=900)}))
        detector.observe(_window(2 * MS, {"tor": _switch(ecn_marked=0)}))
        assert detector.finish(2 * MS) == []

    def test_watermark_crossing(self):
        detector = QueueWatermarkDetector(DetectorThresholds())
        detector.observe(_window(1 * MS, {
            "tor": _switch(shared_in_use=500_000)}))     # 50% -- below
        detector.observe(_window(2 * MS, {
            "tor": _switch(shared_in_use=800_000)}))     # 80% -- above
        detector.observe(_window(3 * MS, {
            "tor": _switch(shared_in_use=100_000)}))     # drained
        incidents = detector.finish(3 * MS)
        assert len(incidents) == 1
        assert incidents[0].kind == "queue_watermark"
        assert incidents[0].details["peak_fraction"] == pytest.approx(0.8)
        assert incidents[0].start_ns == 2 * MS
        assert incidents[0].end_ns == 3 * MS

    def test_watermark_ignores_hosts(self):
        detector = QueueWatermarkDetector(DetectorThresholds())
        detector.observe(_window(1 * MS, {
            "h0": _host(shared_in_use=999_999, shared_size=1_000_000)}))
        assert detector.finish(1 * MS) == []


# -- 4. end-to-end: storm fires, clos_slice silent, replay agrees ------------


@pytest.fixture(scope="module")
def storm_artifacts():
    """The §4.3 storm experiment run once with telemetry armed.

    Returns the drained record lists -- one per scenario leg (watchdogs
    off, watchdogs on), each a full ``repro-telemetry/1`` artifact.
    """
    from repro.experiments.storm import run_storm

    telemetry.arm(telemetry.TelemetryConfig(label="test-storm"))
    try:
        run_storm(seed=1)
    finally:
        telemetry.disarm()
    artifacts = telemetry.drain()
    assert artifacts, "storm run attached no telemetry session"
    return artifacts


def _incidents(records, kind=None):
    return [r for r in records
            if r.get("type") == "incident"
            and (kind is None or r["kind"] == kind)]


class TestStormEndToEnd:
    def test_artifact_shape(self, storm_artifacts):
        for records in storm_artifacts:
            assert records[0]["type"] == "meta"
            assert records[0]["schema"] == "repro-telemetry/1"
            metric_records = [r for r in records if r["type"] == "metric"]
            assert len(metric_records) == len(CATALOG)
            assert any(r["type"] == "sample" for r in records)
            assert records[-1]["type"] == "summary"
            json.dumps(records)  # artifact must be JSON-serializable

    def test_pause_storm_incident_fires_on_victim_nic(self, storm_artifacts):
        storms = [i for records in storm_artifacts
                  for i in _incidents(records, "pause_storm")]
        assert storms, "storm experiment produced no pause_storm incident"
        # The broken NIC is P0T0-S0's; every storm verdict must name it.
        assert {i["device"] for i in storms} == {"P0T0-S0.nic"}
        assert all(i["severity"] == "critical" for i in storms)

    def test_hub_is_dark_after_drain(self, storm_artifacts):
        assert HUB.enabled is False
        assert HUB.session is None
        assert HUB.completed == []

    def test_offline_replay_reproduces_storm_verdicts(self, storm_artifacts):
        for records in storm_artifacts:
            online = {i["device"] for i in _incidents(records, "pause_storm")}
            replayed = telemetry.replay_detectors(records)
            offline = {i.device for i in replayed
                       if i.kind == "pause_storm"}
            assert offline == online

    def test_cli_summarize_renders_incidents(self, storm_artifacts,
                                             tmp_path, capsys):
        path = str(tmp_path / "storm.telemetry.jsonl")
        telemetry.write_jsonl(storm_artifacts[0], path)
        assert main(["summarize", path]) == 0
        out = capsys.readouterr().out
        assert "pause_storm" in out
        assert "P0T0-S0.nic" in out

    def test_cli_export_csv_and_prometheus(self, storm_artifacts,
                                           tmp_path, capsys):
        path = str(tmp_path / "storm.telemetry.jsonl")
        telemetry.write_jsonl(storm_artifacts[0], path)
        csv_path = str(tmp_path / "storm.csv")
        assert main(
            ["export", path, "--format", "csv", "--out", csv_path]) == 0
        with open(csv_path) as fh:
            header = fh.readline().strip()
        assert header == "t_ns,device,metric,value"
        capsys.readouterr()
        assert main(["export", path, "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_port_pause_tx counter" in prom
        assert 'repro_incidents_total{kind="pause_storm"}' in prom

    def test_cli_catalog_lists_every_metric(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        for spec in CATALOG:
            assert spec.name in out


class TestHealthyFabricStaysSilent:
    def test_clos_slice_produces_no_incidents(self):
        # The discriminator the thresholds were calibrated against: a
        # saturated-but-healthy Clos slice (heavy switch backpressure,
        # zero host pause generation) must not raise anything.
        telemetry.arm(telemetry.TelemetryConfig(label="test-clos-slice"))
        try:
            SCENARIOS["clos_slice"].run(seed=1)
        finally:
            telemetry.disarm()
        artifacts = telemetry.drain()
        assert artifacts
        incidents = [i for records in artifacts for i in _incidents(records)]
        assert incidents == [], (
            "healthy clos_slice raised incidents: %r"
            % [(i["kind"], i["device"]) for i in incidents]
        )


class TestBenchTelemetryPass:
    def test_collect_telemetry_annotates_and_writes(self, tmp_path):
        # The observed run is the pinned run: one pass, both planes.
        out_dir = str(tmp_path / "artifacts")
        row = assert_reproduces_pin("single_flow", hubs=(HUB, TRACE), out_dir=out_dir)
        assert [each.hub for each in row.collections] == [HUB, TRACE]
        for collection in row.collections:
            assert collection.paths, "%s wrote no artifact" % collection.hub.name
            for path in collection.paths:
                meta = collection.hub.read_jsonl(path)[0]
                assert meta["type"] == "meta"
                # Telemetry stamps the label on the meta record, tracing its config.
                assert meta.get("config", meta)["label"] == "bench:single_flow"
            assert not collection.hub.enabled and collection.hub.session is None
        assert row.collections[0].headline() == {"incidents": 0}  # one healthy flow


# -- 5. armed totals are the model's counters ----------------------------------


def _dcqcn_incast(seed):
    """3:1 RDMA incast whose senders run DCQCN under an early ECN ramp,
    so CNPs flow and reaction points cut their rates."""
    from repro.dcqcn import enable_dcqcn
    from repro.rdma import connect_qp_pair
    from repro.sim import SeededRng
    from repro.sim.units import KB
    from repro.switch.ecn import EcnConfig
    from repro.topo import single_switch
    from repro.workloads import ClosedLoopSender, RdmaChannel

    ecn = EcnConfig(kmin_bytes=5 * KB, kmax_bytes=40 * KB, pmax=0.5)
    topo = single_switch(n_hosts=4, seed=seed, ecn_config=ecn).boot()
    rng = SeededRng(seed, "dcqcn-incast")
    for src in topo.hosts[1:]:
        qp, _ = connect_qp_pair(src, topo.hosts[0], rng)
        enable_dcqcn(qp)
        ClosedLoopSender(RdmaChannel(qp), 256 * KB).start()
    topo.sim.run(until=topo.sim.now + 3 * MS)


def _model_counters(fabric):
    """``{name|device: value}`` for every counter and gauge metric, read
    off the model objects the catalog names (not through the readers)."""
    out = {}
    for switch in fabric.switches:
        ports, buffer = switch.ports, switch.buffer
        drops = switch.counters.drops
        signalers = [s for row in switch._signalers for s in row if s is not None]
        for name, value in {
            "port.pause_tx": switch.pause_frames_sent(),
            "port.pause_rx": switch.pause_frames_received(),
            "port.resume_tx": sum(p.stats.resume_tx for p in ports),
            "port.resume_rx": sum(p.stats.resume_rx for p in ports),
            "port.paused_ns": sum(p.paused_interval_ns() for p in ports),
            "port.tx_bytes": sum(p.stats.total_tx_bytes for p in ports),
            "port.rx_bytes": sum(p.stats.total_rx_bytes for p in ports),
            "switch.queued_bytes": switch.queued_bytes(),
            "switch.shared_in_use": buffer.shared_in_use,
            "switch.headroom_in_use": buffer.headroom_in_use,
            "switch.paused_pgs": buffer.paused_pgs,
            "switch.ecn_marked": switch.counters.ecn_marked,
            "switch.lossy_drops": drops["buffer-lossy"] + drops["egress-lossy"],
            "switch.headroom_overflow_drops": drops["buffer-headroom-overflow"],
            "switch.pfc_pause_sent": sum(s.pauses_sent for s in signalers),
            "switch.pfc_resume_sent": sum(s.resumes_sent for s in signalers),
            "switch.watchdog_trips": switch.watchdog_trips(),
        }.items():
            out["%s|%s" % (name, switch.name)] = value
    for host in fabric.hosts:
        nic, port = host.nic, host.nic.port
        qps = host.rdma.qps if getattr(host, "rdma", None) else []
        rps = [qp.rp for qp in qps if qp.rp is not None]
        for name, value in {
            "port.pause_tx": nic.stats.pause_generated,
            "port.pause_rx": port.stats.pause_rx,
            "port.resume_tx": nic.stats.resume_generated,
            "port.resume_rx": port.stats.resume_rx,
            "port.paused_ns": port.paused_interval_ns(),
            "port.tx_bytes": port.stats.total_tx_bytes,
            "port.rx_bytes": port.stats.total_rx_bytes,
            "nic.rx_processed": nic.stats.rx_processed,
            "nic.watchdog_trips": nic.watchdog_trips,
            "nic.rx_pipeline_faults": 0,  # no run here breaks a NIC
            "qp.cnps_sent": sum(qp.stats.cnps_sent for qp in qps),
            "qp.naks_sent": sum(qp.stats.naks_sent for qp in qps),
            "dcqcn.cnps_handled": sum(rp.cnps_handled for rp in rps),
            "dcqcn.rate_bps": sum(rp.rate_bps for rp in rps),
        }.items():
            out["%s|%s" % (name, nic.name)] = value
    return out


class TestArmedTotalsAreTheModelCounters:
    @pytest.mark.parametrize("run", [
        SCENARIOS["tcp_baseline"].run, SCENARIOS["incast_tor"].run, _dcqcn_incast,
    ], ids=["tcp_baseline", "incast_tor", "dcqcn_incast"])
    def test_every_counter_and_gauge_total_is_its_model_counter(self, run):
        telemetry.arm(telemetry.TelemetryConfig(label="totals"))
        try:
            run(seed=1)
        finally:
            telemetry.disarm()
        [session] = HUB.completed
        totals = session.records[-1]["totals"]
        model = _model_counters(session.fabric)
        expected = dict(model)
        counted = {spec.name for spec in CATALOG if spec.kind != "histogram"}
        # Every counter and gauge of the catalog is in the summary ...
        assert {key.partition("|")[0] for key in totals} >= counted
        # ... and each total is the model counter it names, except the
        # headroom spill, which no model counter keeps: it is at least
        # what headroom still holds.
        for key, value in totals.items():
            name, _, device = key.partition("|")
            if name == "switch.headroom_spill_bytes":
                assert value >= model["switch.headroom_in_use|" + device]
            elif name in counted:
                assert value == expected.pop(key), key
        assert expected == {}

    def test_lossy_drops_reach_the_summary(self):
        telemetry.arm(telemetry.TelemetryConfig(label="totals"))
        try:
            SCENARIOS["tcp_baseline"].run(seed=1)
        finally:
            telemetry.disarm()
        [session] = HUB.completed
        drops = session.fabric.switches[0].counters.drops
        assert session.records[-1]["totals"]["switch.lossy_drops|T0"] == 142 == (
            drops["egress-lossy"] + drops["buffer-lossy"])

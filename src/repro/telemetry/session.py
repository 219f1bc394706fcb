"""Telemetry collection: config, polling session, hook receivers.

A :class:`TelemetrySession` binds one fabric to the standard detector
stack for the lifetime of a run and reads what the model already counts:

* an engine observer tick (:meth:`Simulator.observe_every
  <repro.sim.engine.Simulator.observe_every>`) polls every device's
  counters each :data:`INTERVAL_NS` through the device-counter readers
  in ``monitoring/counters.py``; every counter and gauge metric of the
  catalog is one of those readings (its spec's ``reading``), so the
  model's counter is the metric's one copy;
* hot-path hooks (behind the :data:`repro.obs.TELEMETRY` gate) push
  only what a poll cannot see into the :class:`MetricRegistry` --
  pause-grant durations and ECN mark-time queue depths (histograms),
  headroom-spill bytes, the switch signaler's pause/resume asserts and
  injected-fault markers -- plus timestamped ``event`` records for
  watchdog trips and faults;
* each poll closes a *window* of per-device deltas and feeds it to the
  online detectors (:mod:`repro.telemetry.detectors`);
* everything is accumulated as artifact records (meta, metric catalog,
  samples, events, incidents, summary) that the exporters in
  :mod:`repro.telemetry.export` serialize.  The summary's totals are
  the last poll's readings plus the registry.

The poll is not a simulator event and the hooks only read, so an armed
run is the dark run byte for byte -- same fingerprint, same
``events_fired``, same ``seq`` on every event (the armed-vs-dark matrix
in ``tests/test_obs.py`` pins it; the engine raises if a poll ever
schedules or cancels).
"""

from repro.monitoring.counters import GAUGES, host_counters, switch_counters
from repro.obs import TELEMETRY as HUB
from repro.sim.units import MS
from repro.telemetry.detectors import DetectorThresholds, build_detectors
from repro.telemetry.registry import CATALOG, MetricRegistry

#: Poll period.  1 ms resolves the §4.3 storm signature (a broken NIC
#: refreshes pauses every ~0.42 ms at 40G, so every window sees 2-3
#: frames) without flooding artifacts on multi-ms runs.
INTERVAL_NS = 1 * MS


def device_window(values, prev, is_host):
    """One device's entry in a detector window: counter deltas since
    ``prev`` (the previous poll's values), gauges as read."""
    window = {"is_host": is_host}
    for key, value in values.items():
        window[key] = value if key in GAUGES else value - prev.get(key, 0)
    return window


class TelemetryConfig:
    """What one collection session is told: ``label``, a free-form run
    label stamped into the artifact's ``meta`` record.  The session polls
    every :data:`INTERVAL_NS` and runs the detectors at the
    :class:`~repro.telemetry.detectors.DetectorThresholds` defaults
    (``python -m repro replay`` re-triages an artifact at others)."""

    def __init__(self, label=""):
        self.label = label


class TelemetrySession:
    """Live collection bound to one fabric (see module docstring)."""

    def __init__(self, fabric, config=None):
        self.fabric = fabric
        self.config = config or TelemetryConfig()
        self.registry = MetricRegistry()
        self.records = []
        #: device -> (is_host, values) of the last poll
        self._last = {}
        self._tick = None
        self._started = False
        self._stopped = False
        self._prev_t = None
        adjacency = self._adjacency(fabric)
        self.detectors = build_detectors(DetectorThresholds(), adjacency)
        self.incidents = []

    @staticmethod
    def _adjacency(fabric):
        """Device-name adjacency from the wired ports (for the
        pause-propagation BFS)."""
        devices = [h.nic for h in fabric.hosts] + list(fabric.switches)
        adjacency = {}
        for device in devices:
            neighbors = set()
            for port in device.ports:
                peer = port.peer
                if peer is not None and peer.device is not None:
                    neighbors.add(peer.device.name)
            adjacency[device.name] = neighbors
        return adjacency

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Install as the hub's live session and begin polling."""
        if self._started:
            return self
        if HUB.session is not None:
            raise RuntimeError("a telemetry session is already active")
        self._started = True
        sim = self.fabric.sim
        self.records.append({
            "type": "meta",
            "schema": HUB.schema,
            "label": self.config.label,
            "t_start_ns": sim.now,
            "interval_ns": INTERVAL_NS,
            "n_hosts": len(self.fabric.hosts),
            "n_switches": len(self.fabric.switches),
        })
        for spec in CATALOG:
            self.records.append(spec.as_record())
        # Baseline snapshot so the first window's deltas are exact.
        self._last = {
            device: (is_host, values)
            for device, is_host, values in self._read_devices()
        }
        # Every hook-fed counter is in the summary, at 0 if never fed.
        for device, (is_host, _values) in self._last.items():
            for spec in CATALOG:
                if spec.kind == "counter" and not spec.reading and spec.on(is_host):
                    self.registry.get(spec.name, device)
        self._prev_t = sim.now
        self._tick = sim.observe_every(INTERVAL_NS, self._close_window)
        HUB.session = self
        HUB.enabled = True
        return self

    def stop(self):
        """Final poll, close detectors, retire into ``HUB.completed``."""
        if self._stopped or not self._started:
            self._stopped = True
            return self
        self._stopped = True
        self._tick.cancel()
        if HUB.session is self:
            HUB.session = None
            HUB.enabled = False
        now = self.fabric.sim.now
        self._close_window()  # capture the tail since the last poll
        for detector in self.detectors:
            for incident in detector.finish(now):
                if incident not in self.incidents:
                    self.incidents.append(incident)
        self.incidents.sort(key=lambda i: (i.start_ns, i.kind, i.device))
        for incident in self.incidents:
            self.records.append(incident.as_record())
        self.records.append(self._summary(now))
        HUB.completed.append(self)
        return self

    def artifact_records(self):
        """The artifact as a list of JSON-serializable dicts."""
        return self.records

    def _summary(self, t_ns):
        by_kind = {}
        for incident in self.incidents:
            by_kind[incident.kind] = by_kind.get(incident.kind, 0) + 1
        totals = {}
        for device, (is_host, values) in self._last.items():
            for spec in CATALOG:
                if spec.reading and spec.on(is_host):
                    totals["%s|%s" % (spec.name, device)] = values[spec.reading]
        totals.update(self.registry.snapshot_values())
        return {
            "type": "summary",
            "t_end_ns": t_ns,
            "label": self.config.label,
            "incidents": by_kind,
            "totals": totals,
        }

    # -- polling -------------------------------------------------------------

    def _read_devices(self):
        """``(name, is_host, values)`` per device: cumulative counters +
        gauges as the shared reader returns them (a host is named by its
        NIC)."""
        for switch in self.fabric.switches:
            yield switch.name, False, switch_counters(switch)
        for host in self.fabric.hosts:
            yield host.nic.name, True, host_counters(host)

    def _close_window(self):
        """One poll: read every device, close the window since the last."""
        t_ns = self.fabric.sim.now
        window = {"t_ns": t_ns, "interval_ns": 0, "devices": {}}
        current = {}
        for device, is_host, values in self._read_devices():
            current[device] = (is_host, values)
            prev = self._last.get(device, (is_host, {}))[1]
            window["devices"][device] = device_window(values, prev, is_host)
            self.records.append({
                "type": "sample",
                "t_ns": t_ns,
                "device": device,
                "is_host": is_host,
                "values": values,
            })
        t_prev = self._prev_t if self._prev_t is not None else t_ns
        window["interval_ns"] = max(0, t_ns - t_prev)
        self._last = current
        self._prev_t = t_ns
        if window["interval_ns"] > 0:
            self._observe(window)

    def _observe(self, window):
        for detector in self.detectors:
            detector.observe(window)
        # Closed incidents accumulate on the detectors; fold them in so
        # mid-run exports see them without waiting for stop().
        for detector in self.detectors:
            for incident in detector.incidents:
                if incident not in self.incidents:
                    self.incidents.append(incident)

    # -- hot-path hook receivers ---------------------------------------------
    # Called only via ``if HUB.enabled: HUB.session.on_*(...)`` guards in
    # the device modules; each is a handful of dict/int operations.

    def on_pause_rx(self, port, duration_ns):
        device = port.device.name if port.device is not None else ""
        self.registry.get("port.pause_duration_ns", device).observe(duration_ns)

    def on_ecn_mark(self, queue_bytes):
        # EcnConfig carries no device context; the fabric-wide histogram
        # still answers "at what depth do we mark?" (Kmin/Kmax tuning).
        self.registry.get("switch.ecn_queue_bytes").observe(queue_bytes)

    def on_headroom_spill(self, owner_name, nbytes):
        self.registry.get("switch.headroom_spill_bytes", owner_name).inc(nbytes)

    def on_nic_watchdog(self, nic):
        self.records.append({
            "type": "event", "kind": "nic_watchdog_trip",
            "t_ns": self.fabric.sim.now, "device": nic.name,
        })

    def on_switch_watchdog(self, switch, port):
        self.records.append({
            "type": "event", "kind": "switch_watchdog_trip",
            "t_ns": self.fabric.sim.now, "device": switch.name,
            "port": port.name,
        })

    def on_fault(self, device_name, kind):
        self.registry.get("nic.rx_pipeline_faults", device_name).inc()
        self.records.append({
            "type": "event", "kind": "fault", "fault": kind,
            "t_ns": self.fabric.sim.now, "device": device_name,
        })

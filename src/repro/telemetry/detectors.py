"""Online detectors layered on the polled telemetry streams.

Each detector consumes the per-poll *window* the session computes -- a
dict of per-device deltas and gauges for one poll interval -- and emits
structured :class:`Incident` records.  They mirror the monitoring
practice of paper §4: the pause-storm detector is the NIC/switch
watchdog's observer-side twin (§4.3), pause-propagation-depth follows
the cascading-pause analysis of §4.1/§5, ECN mark-rate and queue
watermark track the §3 congestion signals, and the victim-flow detector
captures the collateral-damage flows §4.3 calls victims.

Window shape (produced by ``TelemetrySession._close_window``)::

    {
      "t_ns": <window end>, "interval_ns": <window length>,
      "devices": {
        name: {
          "is_host": bool,
          "pause_tx": <pause frames generated this window>,
          "paused_ns": <ns the device's ports spent pause-throttled>,
          "tx_bytes": <payload bytes transmitted this window>,
          "ecn_marked": <CE marks this window (switches)>,
          "shared_in_use": <gauge>, "shared_size": <const>,
          "queued_bytes": <gauge>,
        }, ...
      },
    }

Detectors never reach into the simulator; replaying the same windows
(``python -m repro.telemetry replay``) reproduces the same incidents.

Relation to other modules: ``faults/invariants.py`` audits correctness
invariants (conservation, monotonicity) and raises on violation;
telemetry detectors record operational pathologies without failing the
run.
"""


class Incident:
    """One structured incident record (artifact line ``type: incident``)."""

    __slots__ = ("kind", "device", "start_ns", "end_ns", "severity",
                 "details")

    def __init__(self, kind, device, start_ns, end_ns=None, severity="warn",
                 details=None):
        self.kind = kind
        self.device = device
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.severity = severity
        self.details = details or {}

    def as_record(self):
        return {
            "type": "incident",
            "kind": self.kind,
            "device": self.device,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "severity": self.severity,
            "details": self.details,
        }

    def __repr__(self):
        return "Incident(%s, %s, %d..%s)" % (
            self.kind, self.device, self.start_ns, self.end_ns)


class DetectorThresholds:
    """Tunable knobs shared by all detectors (see docs/telemetry.md for
    the rationale behind each default)."""

    __slots__ = (
        "storm_host_rate", "storm_switch_rate", "storm_min_windows",
        "propagation_min_depth", "ecn_rate", "ecn_min_windows",
        "watermark_fraction", "victim_paused_fraction",
        "victim_tx_floor_bytes",
    )

    def __init__(self, storm_host_rate=500.0, storm_switch_rate=1000000.0,
                 storm_min_windows=2, propagation_min_depth=2,
                 ecn_rate=200000.0, ecn_min_windows=2,
                 watermark_fraction=0.7, victim_paused_fraction=0.5,
                 victim_tx_floor_bytes=1500):
        # A healthy congested fabric (clos_slice) shows essentially zero
        # *host*-generated pauses but heavy legitimate switch-side
        # backpressure (leaf switches sustain >100k pause/s there); a
        # §4.3 storm is a NIC refreshing pauses every half-quantum
        # (~2.4k frames/s at 40G).  Hence the host threshold sits well
        # below the refresh rate and well above noise, while the switch
        # threshold defaults far above healthy backpressure -- switch
        # participation in a storm surfaces through the propagation
        # detector instead of a raw rate trigger.
        self.storm_host_rate = storm_host_rate
        self.storm_switch_rate = storm_switch_rate
        self.storm_min_windows = storm_min_windows
        self.propagation_min_depth = propagation_min_depth
        self.ecn_rate = ecn_rate
        self.ecn_min_windows = ecn_min_windows
        self.watermark_fraction = watermark_fraction
        self.victim_paused_fraction = victim_paused_fraction
        self.victim_tx_floor_bytes = victim_tx_floor_bytes


class PauseStormDetector:
    """Sustained pause *generation* above threshold ⇒ pause storm.

    Fires per device after ``storm_min_windows`` consecutive windows
    whose pause-frame generation rate exceeds the role-specific
    threshold (hosts betray §4.3 storms at far lower rates than
    switches, because healthy hosts essentially never generate pauses).
    The incident stays open while the rate holds and closes on the
    first quiet window, recording the peak rate.
    """

    kind = "pause_storm"

    def __init__(self, thresholds):
        self.thresholds = thresholds
        self._hot = {}      # device -> consecutive hot windows
        self._open = {}     # device -> Incident
        self.incidents = []

    def active_devices(self):
        return set(self._open)

    def observe(self, window):
        interval_s = window["interval_ns"] / 1e9
        if interval_s <= 0:
            return
        t_ns = window["t_ns"]
        for device, values in window["devices"].items():
            rate = values.get("pause_tx", 0) / interval_s
            limit = (self.thresholds.storm_host_rate if values["is_host"]
                     else self.thresholds.storm_switch_rate)
            incident = self._open.get(device)
            if rate >= limit:
                hot = self._hot.get(device, 0) + 1
                self._hot[device] = hot
                if incident is None and hot >= self.thresholds.storm_min_windows:
                    span = hot * window["interval_ns"]
                    incident = Incident(
                        self.kind, device, max(0, t_ns - span),
                        severity="critical" if values["is_host"] else "warn",
                        details={"peak_rate_fps": rate, "windows": hot,
                                 "is_host": values["is_host"]},
                    )
                    self._open[device] = incident
                if incident is not None:
                    incident.details["windows"] = hot
                    if rate > incident.details["peak_rate_fps"]:
                        incident.details["peak_rate_fps"] = rate
            else:
                self._hot[device] = 0
                if incident is not None:
                    incident.end_ns = t_ns
                    self.incidents.append(self._open.pop(device))

    def finish(self, t_ns):
        for device, incident in sorted(self._open.items()):
            incident.end_ns = t_ns
            self.incidents.append(incident)
        self._open.clear()
        return self.incidents


class PausePropagationDetector:
    """How deep did pause pressure spread from a storm origin?

    Only meaningful while the storm detector holds an open incident:
    each window, BFS from every active storm origin through the fabric
    adjacency restricted to devices showing pause activity; the hop
    count is the propagation depth of §4.1's cascading-pause analysis
    (healthy backpressure pauses too, so depth is only attributed to a
    confirmed storm, never computed free-standing).  Emits one incident
    per origin once depth reaches ``propagation_min_depth``, upgrading
    the recorded peak afterwards.
    """

    kind = "pause_propagation"

    def __init__(self, thresholds, adjacency, storm_detector):
        self.thresholds = thresholds
        self.adjacency = adjacency  # device name -> set of neighbor names
        self.storm = storm_detector
        self._emitted = {}          # origin -> Incident
        self.incidents = []

    def observe(self, window):
        origins = self.storm.active_devices()
        if not origins:
            return
        devices = window["devices"]
        paused = {name for name, v in devices.items()
                  if v.get("pause_tx", 0) > 0 or v.get("paused_ns", 0) > 0}
        if not paused:
            return
        for origin in origins:
            depth = self._bfs_depth(origin, paused)
            if depth < self.thresholds.propagation_min_depth:
                continue
            incident = self._emitted.get(origin)
            if incident is None:
                incident = Incident(
                    self.kind, origin, window["t_ns"],
                    details={"max_depth": depth,
                             "frontier": sorted(paused)},
                )
                self._emitted[origin] = incident
                self.incidents.append(incident)
            elif depth > incident.details["max_depth"]:
                incident.details["max_depth"] = depth
                incident.details["frontier"] = sorted(paused)
            incident.end_ns = window["t_ns"]

    def _bfs_depth(self, origin, paused):
        depth = 0
        frontier = [origin]
        seen = {origin}
        while frontier:
            nxt = []
            for node in frontier:
                for neighbor in self.adjacency.get(node, ()):
                    if neighbor in seen or neighbor not in paused:
                        continue
                    seen.add(neighbor)
                    nxt.append(neighbor)
            if not nxt:
                break
            depth += 1
            frontier = nxt
        return depth

    def finish(self, t_ns):
        return self.incidents


class EcnMarkRateDetector:
    """Sustained CE-mark rate above threshold on one switch."""

    kind = "ecn_mark_rate"

    def __init__(self, thresholds):
        self.thresholds = thresholds
        self._hot = {}
        self._open = {}
        self.incidents = []

    def observe(self, window):
        interval_s = window["interval_ns"] / 1e9
        if interval_s <= 0:
            return
        t_ns = window["t_ns"]
        for device, values in window["devices"].items():
            if values["is_host"]:
                continue
            rate = values.get("ecn_marked", 0) / interval_s
            incident = self._open.get(device)
            if rate >= self.thresholds.ecn_rate:
                hot = self._hot.get(device, 0) + 1
                self._hot[device] = hot
                if incident is None and hot >= self.thresholds.ecn_min_windows:
                    incident = Incident(
                        self.kind, device,
                        max(0, t_ns - hot * window["interval_ns"]),
                        details={"peak_rate_mps": rate},
                    )
                    self._open[device] = incident
                if incident is not None and rate > incident.details["peak_rate_mps"]:
                    incident.details["peak_rate_mps"] = rate
            else:
                self._hot[device] = 0
                if incident is not None:
                    incident.end_ns = t_ns
                    self.incidents.append(self._open.pop(device))

    def finish(self, t_ns):
        for device, incident in sorted(self._open.items()):
            incident.end_ns = t_ns
            self.incidents.append(incident)
        self._open.clear()
        return self.incidents


class QueueWatermarkDetector:
    """Shared-pool occupancy crossing a fraction of pool size."""

    kind = "queue_watermark"

    def __init__(self, thresholds):
        self.thresholds = thresholds
        self._open = {}
        self.incidents = []

    def observe(self, window):
        t_ns = window["t_ns"]
        for device, values in window["devices"].items():
            if values["is_host"]:
                continue
            size = values.get("shared_size", 0)
            if not size:
                continue
            fraction = values.get("shared_in_use", 0) / size
            incident = self._open.get(device)
            if fraction >= self.thresholds.watermark_fraction:
                if incident is None:
                    incident = Incident(
                        self.kind, device, t_ns,
                        details={"peak_fraction": fraction,
                                 "shared_size": size},
                    )
                    self._open[device] = incident
                elif fraction > incident.details["peak_fraction"]:
                    incident.details["peak_fraction"] = fraction
            elif incident is not None:
                incident.end_ns = t_ns
                self.incidents.append(self._open.pop(device))

    def finish(self, t_ns):
        for device, incident in sorted(self._open.items()):
            incident.end_ns = t_ns
            self.incidents.append(incident)
        self._open.clear()
        return self.incidents


class VictimFlowDetector:
    """Hosts collaterally damaged while a pause storm is active (§4.3).

    Only scans windows during which the pause-storm detector holds an
    open incident: a *non-origin* host whose port spent most of the
    window pause-throttled while moving almost no payload is a victim.
    """

    kind = "victim_flow"

    def __init__(self, thresholds, storm_detector):
        self.thresholds = thresholds
        self.storm = storm_detector
        self._emitted = {}
        self.incidents = []

    def observe(self, window):
        origins = self.storm.active_devices()
        if not origins:
            return
        interval_ns = window["interval_ns"]
        for device, values in window["devices"].items():
            if not values["is_host"] or device in origins:
                continue
            paused_fraction = values.get("paused_ns", 0) / interval_ns
            if (paused_fraction < self.thresholds.victim_paused_fraction
                    or values.get("tx_bytes", 0)
                    > self.thresholds.victim_tx_floor_bytes):
                continue
            incident = self._emitted.get(device)
            if incident is None:
                incident = Incident(
                    self.kind, device, window["t_ns"],
                    details={"paused_fraction": paused_fraction,
                             "origins": sorted(origins)},
                )
                self._emitted[device] = incident
                self.incidents.append(incident)
            else:
                incident.details["paused_fraction"] = max(
                    incident.details["paused_fraction"], paused_fraction)
            incident.end_ns = window["t_ns"]

    def finish(self, t_ns):
        return self.incidents


def build_detectors(thresholds, adjacency):
    """The standard detector stack, wired so the victim-flow detector
    observes the storm detector's live state."""
    storm = PauseStormDetector(thresholds)
    return [
        storm,
        PausePropagationDetector(thresholds, adjacency, storm),
        EcnMarkRateDetector(thresholds),
        QueueWatermarkDetector(thresholds),
        VictimFlowDetector(thresholds, storm),
    ]

"""Telemetry artifact serialization: JSONL (canonical), CSV, Prometheus.

The canonical artifact is a JSONL file of typed records in emission
order (see docs/telemetry.md for the full schema)::

    {"type": "meta", "schema": "repro-telemetry/1", ...}
    {"type": "metric", "name": "port.pause_tx", "kind": "counter", ...}
    {"type": "sample", "t_ns": ..., "device": "h0", "values": {...}}
    {"type": "event", "kind": "nic_watchdog_trip", ...}
    {"type": "incident", "kind": "pause_storm", ...}
    {"type": "summary", "t_end_ns": ..., "incidents": {...}, ...}

CSV and Prometheus text are derived views: CSV flattens the sample
records (one row per (t_ns, device, metric)), Prometheus renders the
summary totals in exposition format for scraping-style consumers.
Everything round-trips through plain dicts so ``python -m
repro.telemetry replay`` can re-run the detectors offline.  Reading and
writing the JSONL itself is :mod:`repro.artifact`'s job, reached through
the plane's hub (``repro.telemetry.read_jsonl`` / ``write_artifacts``).
"""


def headline(record_lists):
    """Headline counts over drained sessions, for CLI summaries and the
    bench report: ``{"incidents": n}``."""
    return {
        "incidents": sum(
            1
            for records in record_lists
            for record in records
            if record.get("type") == "incident"
        )
    }


def split_records(records):
    """Group an artifact's records by type into a dict of lists."""
    groups = {"meta": [], "metric": [], "sample": [], "event": [],
              "incident": [], "summary": []}
    for record in records:
        groups.setdefault(record.get("type", "unknown"), []).append(record)
    return groups


def write_csv(records, path):
    """Flatten the sample records to CSV: ``t_ns,device,metric,value``."""
    lines = ["t_ns,device,metric,value"]
    for record in records:
        if record.get("type") != "sample":
            continue
        t_ns = record["t_ns"]
        device = record["device"]
        for metric, value in sorted(record["values"].items()):
            lines.append("%d,%s,%s,%s" % (t_ns, device, metric, value))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _sanitize(name):
    return name.replace(".", "_").replace("-", "_")


def prometheus_text(records):
    """Final totals in Prometheus exposition format.

    Counters/gauges come from the summary record's ``totals`` map
    (``name|device`` keys become a ``device`` label); histograms export
    ``_count`` and ``_sum``.  Incident counts are exported as
    ``repro_incidents_total{kind=...}``.
    """
    groups = split_records(records)
    by_name = {m["name"]: m for m in groups["metric"]}
    lines = []
    if not groups["summary"]:
        return ""
    summary = groups["summary"][-1]
    seen_headers = set()
    for key, value in summary.get("totals", {}).items():
        name, _, device = key.partition("|")
        spec = by_name.get(name, {})
        metric = "repro_" + _sanitize(name)
        if metric not in seen_headers:
            seen_headers.add(metric)
            lines.append("# HELP %s %s" % (metric, spec.get("help", "")))
            kind = spec.get("kind", "gauge")
            lines.append("# TYPE %s %s" % (
                metric, "counter" if kind == "counter" else
                "histogram" if kind == "histogram" else "gauge"))
        label = '{device="%s"}' % device if device else ""
        if isinstance(value, dict):  # histogram
            lines.append("%s_count%s %d" % (metric, label, value["count"]))
            lines.append("%s_sum%s %d" % (metric, label, value["total"]))
        else:
            lines.append("%s%s %s" % (metric, label, value))
    incidents = summary.get("incidents", {})
    if incidents:
        lines.append("# HELP repro_incidents_total detector incidents by kind")
        lines.append("# TYPE repro_incidents_total counter")
        for kind, count in sorted(incidents.items()):
            lines.append('repro_incidents_total{kind="%s"} %d' % (kind, count))
    return "\n".join(lines) + "\n"


def summarize(records):
    """Human-readable multi-line summary of one artifact."""
    groups = split_records(records)
    meta = groups["meta"][0] if groups["meta"] else {}
    summary = groups["summary"][-1] if groups["summary"] else {}
    out = []
    label = meta.get("label") or "(unlabelled)"
    out.append("telemetry artifact: %s" % label)
    out.append("  schema     %s" % meta.get("schema", "?"))
    out.append("  fabric     %d hosts, %d switches"
               % (meta.get("n_hosts", 0), meta.get("n_switches", 0)))
    t0 = meta.get("t_start_ns", 0)
    t1 = summary.get("t_end_ns", t0)
    out.append("  span       %.3f ms (poll every %.3f ms, %d samples)"
               % ((t1 - t0) / 1e6, meta.get("interval_ns", 0) / 1e6,
                  len(groups["sample"])))
    for event in groups["event"]:
        out.append("  event      t=%.3fms %-20s %s"
                   % (event["t_ns"] / 1e6, event["kind"], event["device"]))
    if groups["incident"]:
        out.append("  incidents  (%d)" % len(groups["incident"]))
        for incident in groups["incident"]:
            end = incident.get("end_ns")
            out.append(
                "    [%s] %-18s %-8s t=%.3f..%sms %s"
                % (incident.get("severity", "warn"), incident["kind"],
                   incident["device"], incident["start_ns"] / 1e6,
                   "%.3f" % (end / 1e6) if end is not None else "?",
                   _incident_detail(incident)))
    else:
        out.append("  incidents  none")
    return "\n".join(out)


def _incident_detail(incident):
    details = incident.get("details", {})
    kind = incident["kind"]
    if kind == "pause_storm":
        return "peak %.0f pause/s over %d windows" % (
            details.get("peak_rate_fps", 0), details.get("windows", 0))
    if kind == "pause_propagation":
        return "depth %d via %s" % (
            details.get("max_depth", 0),
            ",".join(details.get("frontier", []))[:60])
    if kind == "ecn_mark_rate":
        return "peak %.0f marks/s" % details.get("peak_rate_mps", 0)
    if kind == "queue_watermark":
        return "peak %.0f%% of shared pool" % (
            100 * details.get("peak_fraction", 0))
    if kind == "victim_flow":
        return "paused %.0f%% of window, origins %s" % (
            100 * details.get("paused_fraction", 0),
            ",".join(details.get("origins", [])))
    return ""


def replay_detectors(records, thresholds=None):
    """Re-run the detector stack over an artifact's sample records.

    Rebuilds the per-window delta streams from the cumulative sample
    values (no simulator needed) and returns the incident list -- the
    offline twin of the online pipeline, used by ``python -m
    repro.telemetry replay`` and the detector tests.
    """
    from repro.telemetry.detectors import DetectorThresholds, build_detectors
    from repro.telemetry.session import device_window

    groups = split_records(records)
    # Reconstruct adjacency is impossible offline; propagation detection
    # degrades to same-window co-activity via a fully-connected graph.
    devices = sorted({s["device"] for s in groups["sample"]})
    adjacency = {d: set(devices) - {d} for d in devices}
    detectors = build_detectors(thresholds or DetectorThresholds(), adjacency)

    by_time = {}
    for sample in groups["sample"]:
        by_time.setdefault(sample["t_ns"], {})[sample["device"]] = sample
    prev = {}
    prev_t = None
    last_t = 0
    for t_ns in sorted(by_time):
        window = {"t_ns": t_ns,
                  "interval_ns": (t_ns - prev_t) if prev_t is not None else 0,
                  "devices": {}}
        for device, sample in by_time[t_ns].items():
            values = sample["values"]
            window["devices"][device] = device_window(
                values, prev.get(device, {}), sample.get("is_host", False))
            prev[device] = values
        if window["interval_ns"] > 0:
            for detector in detectors:
                detector.observe(window)
        prev_t = t_ns
        last_t = t_ns
    incidents = []
    for detector in detectors:
        for incident in detector.finish(last_t):
            if incident not in incidents:
                incidents.append(incident)
    incidents.sort(key=lambda i: (i.start_ns, i.kind, i.device))
    return incidents

"""Trace artifact I/O: JSONL, Chrome trace events, incident windows.

Artifact layout (one JSON object per line, schema ``repro-trace/1``)::

    {"type": "meta", "schema": "repro-trace/1", ...}
    {"type": "op", "wr_id": ..., "chain": [...], "packets": [...]}
    {"type": "pause_node", "id": ..., "causes": [...]}
    {"type": "pause_interval", "port": ..., "start_ns": ..., ...}
    {"type": "event" | "rate_decrease", ...}
    {"type": "summary", ...}

The Chrome trace-event export (:func:`chrome_trace`) produces a JSON
object loadable by Perfetto / ``chrome://tracing``: each traced op is
an async span on its posting host, each hop of its completion-chain
packets a duration slice on the device/port that held it, and each
pause episode a slice on the emitting device -- the storm literally
renders as a wall of pause slices with the victim ops stretched
underneath.

:func:`windows_from_telemetry` bridges the two observability planes:
give it a *telemetry* artifact's records and it returns the incident
time windows (padded), ready for :func:`filter_window` -- the
"telemetry incident -> trace window" triage step docs/telemetry.md and
docs/tracing.md walk through.

Reading and writing the JSONL itself is :mod:`repro.artifact`'s job,
reached through the plane's hub (``repro.tracing.read_jsonl`` /
``write_artifacts``).
"""


def headline(record_lists):
    """Headline counts over drained sessions, for CLI summaries and the
    bench report: ops traced, ops completed, pause episodes."""
    counts = {"ops": 0, "ops_completed": 0, "pause_nodes": 0}
    for records in record_lists:
        summary = summary_of(records)
        counts["ops"] += summary.get("ops_traced", 0)
        counts["ops_completed"] += summary.get("ops_completed", 0)
        counts["pause_nodes"] += summary.get("pause_nodes", 0)
    return counts


def summary_of(records):
    """The summary record of an artifact (or an empty dict)."""
    for record in records:
        if record.get("type") == "summary":
            return record
    return {}


# ---------------------------------------------------------------- windows


def windows_from_telemetry(telemetry_records, pad_ns=1_000_000):
    """Incident time windows from a *telemetry* artifact's records.

    Returns ``[{"kind", "device", "start_ns", "end_ns"}, ...]`` with
    each incident's window padded by ``pad_ns`` on both sides (clamped
    at zero; open-ended incidents stay open -- ``end_ns`` None means
    "until the end of the trace").
    """
    windows = []
    for record in telemetry_records:
        if record.get("type") != "incident":
            continue
        end = record.get("end_ns")
        windows.append(
            {
                "kind": record.get("kind"),
                "device": record.get("device"),
                "start_ns": max(0, record["start_ns"] - pad_ns),
                "end_ns": None if end is None else end + pad_ns,
            }
        )
    return windows


def _overlaps(start, end, lo, hi):
    if start is None:
        return False
    if hi is None:
        hi = float("inf")
    if end is None:
        end = start
    return start <= hi and end >= lo


def filter_window(records, start_ns, end_ns=None):
    """Keep the records relevant to ``[start_ns, end_ns]``.

    Meta and summary records always pass; ops pass when their
    ``[posted_ns, completed_ns]`` span overlaps the window; pause
    nodes/intervals and point events pass on overlap too.  ``end_ns``
    None means "to the end".
    """
    out = []
    for record in records:
        rtype = record.get("type")
        if rtype in ("meta", "summary"):
            out.append(record)
        elif rtype == "op":
            if _overlaps(
                record.get("posted_ns"), record.get("completed_ns"),
                start_ns, end_ns,
            ):
                out.append(record)
        elif rtype in ("pause_node", "pause_interval"):
            if _overlaps(
                record.get("start_ns"), record.get("end_ns"), start_ns, end_ns
            ):
                out.append(record)
        elif "t_ns" in record:
            if _overlaps(record["t_ns"], record["t_ns"], start_ns, end_ns):
                out.append(record)
        else:
            out.append(record)
    return out


# ----------------------------------------------------------- Chrome export


def _us(t_ns):
    return t_ns / 1000.0


def chrome_trace(records, max_ops=None):
    """Records -> Chrome trace-event JSON object (Perfetto-loadable).

    ``max_ops`` caps how many ops get per-hop slices (the async span is
    always emitted); None means no cap.
    """
    events = []
    op_count = 0
    for record in records:
        rtype = record.get("type")
        if rtype == "op":
            name = "%s wr%d %s %dB" % (
                record["qp"], record["wr_id"], record["kind"],
                record["size_bytes"],
            )
            completed = record.get("completed_ns")
            events.append(
                {
                    "ph": "b", "cat": "op", "id": record["wr_id"],
                    "name": name, "pid": record.get("host", record["qp"]),
                    "tid": "ops", "ts": _us(record["posted_ns"]),
                }
            )
            events.append(
                {
                    "ph": "e", "cat": "op", "id": record["wr_id"],
                    "name": name, "pid": record.get("host", record["qp"]),
                    "tid": "ops",
                    "ts": _us(
                        completed
                        if completed is not None
                        else record["posted_ns"]
                    ),
                }
            )
            op_count += 1
            if max_ops is not None and op_count > max_ops:
                continue
            for packet in record.get("chain", ()):
                events.extend(_packet_slices(packet, record["wr_id"]))
        elif rtype == "pause_node":
            end = record.get("end_ns")
            if end is None:
                end = record["start_ns"]
            events.append(
                {
                    "ph": "X", "cat": "pause",
                    "name": "pause (%s)" % record["trigger"],
                    "pid": record["device"], "tid": record["port"],
                    "ts": _us(record["start_ns"]),
                    "dur": _us(end - record["start_ns"]),
                    "args": {
                        "emissions": record["emissions"],
                        "causes": record["causes"],
                        "priority": record["priority"],
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def _packet_slices(packet, wr_id):
    """Queue + serialization slices for one chain packet's hops."""
    slices = []
    events = packet["events"]
    label = packet["kind"]
    if "psn" in packet:
        label = "%s psn %d" % (label, packet["psn"])
    pending = None  # (enq_t, port, device)
    for event in events:
        tag = event[0]
        if tag == "enq":
            pending = (event[1], event[2], event[3])
        elif tag == "wire" and pending is not None:
            enq_t, port, device = pending
            pending = None
            if event[1] > enq_t:
                slices.append(
                    {
                        "ph": "X", "cat": "queue",
                        "name": "queued %s" % label,
                        "pid": device, "tid": port,
                        "ts": _us(enq_t), "dur": _us(event[1] - enq_t),
                        "args": {"wr_id": wr_id},
                    }
                )
            slices.append(
                {
                    "ph": "X", "cat": "wire",
                    "name": "serialize %s" % label,
                    "pid": device, "tid": port,
                    "ts": _us(event[1]), "dur": _us(event[3]),
                    "args": {"wr_id": wr_id},
                }
            )
        elif tag == "nicrx":
            nicrx_t, nic = event[1], event[2]
            done = [e for e in events if e[0] == "nicdone" and e[1] >= nicrx_t]
            if done:
                slices.append(
                    {
                        "ph": "X", "cat": "nic",
                        "name": "rx pipeline %s" % label,
                        "pid": nic, "tid": "rx",
                        "ts": _us(nicrx_t), "dur": _us(done[0][1] - nicrx_t),
                        "args": {"wr_id": wr_id},
                    }
                )
    return slices

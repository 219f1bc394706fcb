"""Unified fabric observability: metrics, detectors, exporters.

This package is the simulator's counterpart of the paper's §4 operations
story -- the continuously collected pause/ECN/buffer/transport signals
and the incident detection built on top of them.  It has four parts:

``HUB``
    The plane's :class:`repro.obs.Hub` (``repro.obs.TELEMETRY``), whose
    single ``enabled`` flag gates every hot-path probe (disabled costs
    one attribute load + branch; nothing else runs).  ``arm``,
    ``disarm``, ``drain``, ``collect``, ``read_jsonl`` and
    ``write_artifacts`` below are its bound methods.
``registry`` / ``session``
    The declared metric catalog with the hook-fed counters and
    histograms, and the per-run collection session that polls every
    counter and gauge from the model and receives the hook pushes.
``detectors``
    Online pause-storm, pause-propagation, ECN mark-rate, queue
    watermark and victim-flow detectors emitting structured incidents.
``export``
    JSONL artifact (canonical), CSV and Prometheus-style text views, a
    human summary and an offline detector replay.

Typical embedding (what ``repro.bench --telemetry``, ``repro.campaign
--telemetry``, ``repro.validation sweep --telemetry`` and the experiment
CLI's ``--telemetry-dir`` do)::

    import repro.telemetry as telemetry

    with telemetry.collect("my-run", "artifacts/", "my-run") as collection:
        ...build fabrics and run (Fabric.boot auto-attaches a session)...
    print(collection.describe())

See docs/telemetry.md for the operator's handbook and docs/cli.md for
the artifact verbs (``python -m repro summarize|replay|export|metrics``).
"""

from repro.artifact import write_jsonl
from repro.obs import TELEMETRY as HUB
from repro.telemetry.detectors import (
    DetectorThresholds,
    Incident,
    build_detectors,
)
from repro.telemetry.export import (
    headline,
    prometheus_text,
    replay_detectors,
    split_records,
    summarize,
    write_csv,
)
from repro.telemetry.registry import CATALOG, MetricRegistry
from repro.telemetry.session import TelemetryConfig, TelemetrySession

arm = HUB.arm
disarm = HUB.disarm
drain = HUB.drain
collect = HUB.collect
read_jsonl = HUB.read_jsonl
write_artifacts = HUB.write_artifacts

__all__ = [
    "HUB",
    "arm",
    "disarm",
    "drain",
    "collect",
    "TelemetryConfig",
    "TelemetrySession",
    "DetectorThresholds",
    "Incident",
    "build_detectors",
    "MetricRegistry",
    "CATALOG",
    "write_jsonl",
    "read_jsonl",
    "write_artifacts",
    "headline",
    "write_csv",
    "prometheus_text",
    "summarize",
    "split_records",
    "replay_detectors",
]

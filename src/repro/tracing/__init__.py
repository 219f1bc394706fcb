"""repro.tracing -- the causal tracing plane (and packet capture).

Two tools share this package:

* The **causal tracing plane**: sampled life-of-an-op spans, latency
  attribution with an exact-sum invariant, and pause-causality graphs
  whose roots are the DCFIT-style initial triggers.  Arm it like
  telemetry (``repro.tracing.arm()`` before ``Fabric.boot``, or
  ``--trace`` on ``python -m repro gate|run``), drain artifacts after
  the run, and analyse online or via ``python -m repro`` (docs/cli.md).
  See docs/tracing.md.

* The per-frame **packet capture** (:class:`PacketTracer`,
  :mod:`repro.tracing.capture`).

Quick start::

    import repro.tracing as tracing

    tracing.arm(tracing.TraceConfig(sample_rate=0.1, sample_seed=7))
    fabric.boot()           # session auto-attaches
    ... run ...
    tracing.disarm()
    for records in tracing.drain():
        attributions = tracing.attribute_records(records)
        dag = tracing.build_dag(records, attributions)

``HUB`` is the plane's :class:`repro.obs.Hub` (``repro.obs.TRACE``);
``arm``, ``disarm``, ``drain``, ``collect``, ``read_jsonl`` and
``write_artifacts`` are its bound methods, the same lifecycle and
artifact I/O the telemetry plane has (``with tracing.collect(label,
out_dir, stem): ...`` is the sequence above plus the write).

The dark path is a single disabled-bool check per probe: with the hub
unarmed every bench fingerprint in benchmarks/BASELINE.json stays
byte-identical (CI's dark-path gate), and because a session schedules
no events, fingerprints stay identical even while armed.
"""

from repro.artifact import write_jsonl
from repro.obs import TRACE as HUB
from repro.tracing.capture import PacketTracer, TraceRecord, summarize
from repro.tracing.session import TraceConfig, TraceSession
from repro.tracing.attribution import (
    COMPONENTS,
    aggregate,
    attribute_op,
    attribute_records,
    pause_intervals_from_records,
    pause_overlap,
)
from repro.tracing.causality import StormDag, build_dag, render_text
from repro.tracing.export import (
    chrome_trace,
    filter_window,
    headline,
    summary_of,
    windows_from_telemetry,
)

arm = HUB.arm
disarm = HUB.disarm
drain = HUB.drain
collect = HUB.collect
read_jsonl = HUB.read_jsonl
write_artifacts = HUB.write_artifacts

__all__ = [
    # packet capture
    "PacketTracer",
    "TraceRecord",
    "summarize",
    # hub lifecycle
    "HUB",
    "arm",
    "disarm",
    "drain",
    "collect",
    "TraceConfig",
    "TraceSession",
    # attribution
    "COMPONENTS",
    "aggregate",
    "attribute_op",
    "attribute_records",
    "pause_intervals_from_records",
    "pause_overlap",
    # causality
    "StormDag",
    "build_dag",
    "render_text",
    # artifacts
    "chrome_trace",
    "filter_window",
    "headline",
    "read_jsonl",
    "summary_of",
    "windows_from_telemetry",
    "write_artifacts",
    "write_jsonl",
]

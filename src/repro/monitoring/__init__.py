"""Management and monitoring (paper section 5).

"From day one ... we put RDMA/RoCEv2 management and monitoring as an
indispensable part of the project."  The reproduction mirrors the three
capabilities the paper describes:

* :mod:`~repro.monitoring.config_mgmt` -- desired-vs-running
  configuration monitoring (the section 6.2 alpha incident is a config
  drift this catches);
* :mod:`~repro.monitoring.counters` -- the readers for the PFC pause
  and traffic counters of switches and servers, including the *pause
  interval* metric the paper asked its ASIC vendors for;
* :mod:`~repro.monitoring.pingmesh` -- RDMA Pingmesh: active latency
  probes (512-byte payloads) between server pairs, logging RTT or an
  error code.

Relation to :mod:`repro.telemetry`
----------------------------------
This package *models the paper's management plane inside the
simulation*: Pingmesh probes are real simulated RDMA traffic, config
drift is checked against simulated device state, and experiments (E9,
E10) reproduce the paper's figures from these components.
:mod:`repro.telemetry` is the other way around -- an out-of-band
observability layer for the simulator itself (hot-path hooks, a metric
catalog, online detectors, JSONL artifacts) that never injects traffic
or perturbs a run.  The paper's periodic counter collection and its
pause-storm diagnosis ("trace ... to a single server", section 6.2) are
that layer's :class:`~repro.telemetry.TelemetrySession` and
``pause_storm`` detector, reading devices through
:mod:`~repro.monitoring.counters`.
"""

from repro.monitoring.config_mgmt import ConfigDrift, ConfigMonitor, DesiredConfig
from repro.monitoring.health import HealthTracker, ServerState
from repro.monitoring.pingmesh import (
    Pingmesh,
    ProbeResult,
    read_probe_jsonl,
    summarize_probe_records,
)

__all__ = [
    "DesiredConfig",
    "ConfigMonitor",
    "ConfigDrift",
    "Pingmesh",
    "ProbeResult",
    "read_probe_jsonl",
    "summarize_probe_records",
    "HealthTracker",
    "ServerState",
]

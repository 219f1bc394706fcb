"""Management and monitoring (paper section 5).

"From day one ... we put RDMA/RoCEv2 management and monitoring as an
indispensable part of the project."  The reproduction mirrors the three
capabilities the paper describes:

* :mod:`~repro.monitoring.config_mgmt` -- desired-vs-running
  configuration monitoring (the section 6.2 alpha incident is a config
  drift this catches);
* :mod:`~repro.monitoring.counters` -- periodic collection of PFC pause
  and per-priority traffic counters from switches and servers, including
  the *pause interval* metric the paper asked its ASIC vendors for;
* :mod:`~repro.monitoring.pingmesh` -- RDMA Pingmesh: active latency
  probes (512-byte payloads) between server pairs, logging RTT or an
  error code;
* :mod:`~repro.monitoring.incidents` -- detectors over the collected
  counters (pause storms, unavailable servers).

Relation to :mod:`repro.telemetry`
----------------------------------
This package *models the paper's management plane inside the
simulation*: Pingmesh probes are real simulated RDMA traffic, config
drift is checked against simulated device state, and experiments (E9,
E10) reproduce the paper's figures from these components.
:mod:`repro.telemetry` is the other way around -- an out-of-band
observability layer for the simulator itself (hot-path hooks, a metric
catalog, online detectors, JSONL artifacts) that never injects traffic
or perturbs a run.  Both read device counters through the one reader in
:mod:`~repro.monitoring.counters` (``switch_counters`` /
``host_counters``), so the two planes cannot disagree on what a counter
means.
"""

from repro.monitoring.config_mgmt import ConfigDrift, ConfigMonitor, DesiredConfig
from repro.monitoring.counters import CounterCollector
from repro.monitoring.health import HealthTracker, ServerState
from repro.monitoring.incidents import IncidentDetector, PauseStormIncident
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
    "CounterCollector",
    "Pingmesh",
    "ProbeResult",
    "read_probe_jsonl",
    "summarize_probe_records",
    "IncidentDetector",
    "PauseStormIncident",
    "HealthTracker",
    "ServerState",
]

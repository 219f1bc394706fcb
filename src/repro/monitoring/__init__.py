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

import importlib

#: re-exported name -> the submodule that defines it, resolved on first
#: use (PEP 562): ``repro.monitoring.counters`` is on the telemetry
#: plane's import path, and an eager ``pingmesh`` would drag
#: ``repro.rdma`` along with it.
_EXPORTS = {
    "DesiredConfig": "repro.monitoring.config_mgmt",
    "ConfigMonitor": "repro.monitoring.config_mgmt",
    "ConfigDrift": "repro.monitoring.config_mgmt",
    "Pingmesh": "repro.monitoring.pingmesh",
    "ProbeResult": "repro.monitoring.pingmesh",
    "read_probe_jsonl": "repro.monitoring.pingmesh",
    "summarize_probe_records": "repro.monitoring.pingmesh",
    "HealthTracker": "repro.monitoring.health",
    "ServerState": "repro.monitoring.health",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

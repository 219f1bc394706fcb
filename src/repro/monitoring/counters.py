"""Periodic counter collection.

Snapshots, per device and interval: pause frames sent/received, resumes,
per-priority traffic bytes/packets, drops, and cumulative pause
intervals.  The paper monitors exactly these ("we monitor the number of
pause frames been sent and received by the switches and servers.  We
further monitor the pause intervals at the server side").

.. note:: absorbed by :mod:`repro.telemetry`

   The unified telemetry subsystem polls the same counters the same
   way (``port.paused_interval_ns()`` books the open pause interval
   before it is read) but against a declared metric catalog, with ring
   series, online detectors and JSONL/CSV/Prometheus exporters on top.
   New code should prefer ``telemetry.arm()`` + ``Fabric.boot()`` (or
   the ``--telemetry`` flags of the bench/campaign/validation CLIs); the
   re-exports below point migrating callers at the replacements.

   :class:`CounterCollector` itself stays: it is the *in-model*
   management-plane collector the paper-section-5 experiments drive
   explicitly, needs no global hub, and its query helpers
   (:meth:`~CounterCollector.rate_series`, ...) are used by
   :mod:`repro.monitoring.incidents` for the offline section-6.2 scans.
"""

import collections

from repro.sim.timer import Timer
from repro.sim.units import MS

# Migration re-exports: the telemetry layer that absorbed this module's
# polling role (kept importable from here so call sites that grew up on
# ``monitoring.counters`` find the successor in the obvious place).
from repro.telemetry.registry import CATALOG as TELEMETRY_CATALOG  # noqa: F401
from repro.telemetry.session import (  # noqa: F401
    TelemetryConfig,
    TelemetrySession,
)


class Snapshot:
    """One device's counters at one instant."""

    __slots__ = ("t_ns", "device", "values")

    def __init__(self, t_ns, device, values):
        self.t_ns = t_ns
        self.device = device
        self.values = values


class CounterCollector:
    """Polls a fabric's switches and hosts on a fixed interval."""

    def __init__(self, sim, fabric, interval_ns=10 * MS):
        self.sim = sim
        self.fabric = fabric
        self.interval_ns = interval_ns
        self.snapshots = []
        self._timer = Timer(sim, self._collect, name="counters")
        self._running = False

    def start(self):
        self._running = True
        self._collect()
        return self

    def stop(self):
        self._running = False
        self._timer.cancel()

    def _collect(self):
        now = self.sim.now
        for switch in self.fabric.switches:
            self.snapshots.append(Snapshot(now, switch.name, self._switch_values(switch)))
        for host in self.fabric.hosts:
            self.snapshots.append(Snapshot(now, host.name, self._host_values(host)))
        if self._running:
            self._timer.start(self.interval_ns)

    @staticmethod
    def _switch_values(switch):
        return {
            "pause_tx": sum(p.stats.pause_tx for p in switch.ports),
            "pause_rx": sum(p.stats.pause_rx for p in switch.ports),
            "resume_tx": sum(p.stats.resume_tx for p in switch.ports),
            "tx_bytes": sum(p.stats.total_tx_bytes for p in switch.ports),
            "rx_bytes": sum(p.stats.total_rx_bytes for p in switch.ports),
            "drops": switch.counters.total_drops,
            "ecn_marked": switch.counters.ecn_marked,
            "queued_bytes": switch.queued_bytes(),
        }

    @staticmethod
    def _host_values(host):
        port = host.nic.port
        return {
            "pause_tx": host.nic.stats.pause_generated,
            "pause_rx": port.stats.pause_rx,
            "tx_bytes": port.stats.total_tx_bytes,
            "rx_bytes": port.stats.total_rx_bytes,
            "rx_processed": host.nic.stats.rx_processed,
            "paused_interval_ns": port.paused_interval_ns(),
        }

    # -- queries -----------------------------------------------------------------

    def series(self, device, metric):
        """Cumulative counter time series [(t_ns, value)] for a device."""
        return [
            (s.t_ns, s.values[metric]) for s in self.snapshots if s.device == device
        ]

    def rate_series(self, device, metric):
        """Per-interval deltas [(t_ns, delta)] of a cumulative counter."""
        cumulative = self.series(device, metric)
        deltas = []
        for (t0, v0), (t1, v1) in zip(cumulative, cumulative[1:]):
            deltas.append((t1, v1 - v0))
        return deltas

    def devices(self):
        return sorted({s.device for s in self.snapshots})

    def totals_at_end(self, metric):
        """Final cumulative value per device."""
        latest = collections.OrderedDict()
        for snapshot in self.snapshots:
            if metric in snapshot.values:
                latest[snapshot.device] = snapshot.values[metric]
        return latest

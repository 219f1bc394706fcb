"""Periodic counter collection.

Snapshots, per device and interval: pause frames sent/received, resumes,
per-priority traffic bytes/packets, drops, and cumulative pause
intervals.  The paper monitors exactly these ("we monitor the number of
pause frames been sent and received by the switches and servers.  We
further monitor the pause intervals at the server side").

Relation to :mod:`repro.telemetry`
   Both planes read devices through :func:`switch_counters` and
   :func:`host_counters` below, so a counter means the same thing in a
   :class:`CounterCollector` snapshot and in a telemetry sample.  The
   telemetry session adds a declared metric catalog, ring series, online
   detectors and exporters on top, out of band (``telemetry.arm()`` +
   ``Fabric.boot()``, or the ``--telemetry`` flags of the
   bench/campaign/validation CLIs).  :class:`CounterCollector` is the
   *in-model* management-plane collector the paper-section-5
   experiments drive explicitly; it needs no global hub, and its query
   helpers (:meth:`~CounterCollector.rate_series`, ...) are used by
   :mod:`repro.monitoring.incidents` for the offline section-6.2 scans.
"""

import collections

from repro.sim.timer import Timer
from repro.sim.units import MS


#: The values below that are instantaneous gauges; every other one is a
#: cumulative counter, so consumers take deltas of it between polls.
GAUGES = frozenset((
    "queued_bytes", "shared_in_use", "headroom_in_use", "paused_pgs",
    "shared_size",
))


def switch_counters(switch):
    """One switch's cumulative counters and current gauges.

    ``paused_ns`` books every port's open pause interval before it is
    read (``Port.paused_interval_ns``); the buffer gauges are 0 until the
    switch is finalized.
    """
    ports = switch.ports
    buffer = switch.buffer
    return {
        "pause_tx": sum(p.stats.pause_tx for p in ports),
        "pause_rx": sum(p.stats.pause_rx for p in ports),
        "resume_tx": sum(p.stats.resume_tx for p in ports),
        "resume_rx": sum(p.stats.resume_rx for p in ports),
        "paused_ns": sum(p.paused_interval_ns() for p in ports),
        "tx_bytes": sum(p.stats.total_tx_bytes for p in ports),
        "rx_bytes": sum(p.stats.total_rx_bytes for p in ports),
        "ecn_marked": switch.counters.ecn_marked,
        "drops": switch.counters.total_drops,
        "queued_bytes": switch.queued_bytes(),
        "shared_in_use": buffer.shared_in_use if buffer else 0,
        "headroom_in_use": buffer.headroom_in_use if buffer else 0,
        "paused_pgs": buffer.paused_pgs if buffer else 0,
        "shared_size": buffer.shared_size if buffer else 0,
        "watchdog_trips": switch.watchdog_trips(),
    }


def host_counters(host):
    """One server's cumulative counters, read at its NIC and port."""
    nic = host.nic
    port = nic.port
    return {
        "pause_tx": nic.stats.pause_generated,
        "resume_tx": nic.stats.resume_generated,
        "pause_rx": port.stats.pause_rx,
        "resume_rx": port.stats.resume_rx,
        "paused_ns": port.paused_interval_ns(),
        "tx_bytes": port.stats.total_tx_bytes,
        "rx_bytes": port.stats.total_rx_bytes,
        "rx_processed": nic.stats.rx_processed,
        "watchdog_trips": nic.watchdog_trips,
    }


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
            self.snapshots.append(Snapshot(now, switch.name, switch_counters(switch)))
        for host in self.fabric.hosts:
            self.snapshots.append(Snapshot(now, host.name, host_counters(host)))
        if self._running:
            self._timer.start(self.interval_ns)

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

"""Metric primitives: counters, gauges, histograms, ring-buffered series.

The registry is the passive half of the telemetry subsystem: it owns the
metric objects and their declared metadata (unit, source module, paper
counterpart) but never touches the simulator.  The active half --
:mod:`repro.telemetry.session` -- feeds it from hot-path hooks and from
the periodic poll, and the detectors/exporters read it back out.

Design notes
------------
* Metrics are keyed on ``(name, device)`` so one catalog entry fans out
  to per-device instances; the catalog (``MetricSpec``) is declared once
  in :data:`CATALOG` and rendered into docs/telemetry.md.
* ``Histogram`` uses power-of-two buckets: ``observe(v)`` lands in
  bucket ``ceil(log2(v+1))``, giving fixed memory and merge-free
  percentile estimates good to a factor of two -- plenty for queue-depth
  and pause-duration distributions.
* ``RingSeries`` is a fixed-capacity ring of ``(t_ns, value)`` samples;
  when full it overwrites the oldest and counts the drop, so long runs
  degrade to a sliding window instead of growing without bound.
"""

from collections import OrderedDict


class MetricSpec:
    """Catalog metadata for one metric family (see docs/telemetry.md)."""

    __slots__ = ("name", "kind", "unit", "source", "paper", "help")

    def __init__(self, name, kind, unit, source, paper, help):
        self.name = name
        self.kind = kind  # "counter" | "gauge" | "histogram"
        self.unit = unit
        self.source = source  # module that feeds it
        self.paper = paper  # paper §4 counterpart, "" when none
        self.help = help

    def as_record(self):
        return {
            "type": "metric",
            "name": self.name,
            "kind": self.kind,
            "unit": self.unit,
            "source": self.source,
            "paper": self.paper,
            "help": self.help,
        }


#: The full metric catalog.  Every metric the session emits is declared
#: here; docs/telemetry.md and ``python -m repro.telemetry catalog``
#: render from this list, and tests assert the two stay in sync.
CATALOG = [
    # -- port / link layer (net/port.py) --------------------------------
    MetricSpec("port.pause_tx", "counter", "frames", "net/port.py",
               "§4.1", "PFC pause frames transmitted by the port"),
    MetricSpec("port.pause_rx", "counter", "frames", "net/port.py",
               "§4.1", "PFC pause frames received by the port"),
    MetricSpec("port.resume_tx", "counter", "frames", "net/port.py",
               "§4.1", "PFC resume (zero-quanta) frames transmitted"),
    MetricSpec("port.resume_rx", "counter", "frames", "net/port.py",
               "§4.1", "PFC resume (zero-quanta) frames received"),
    MetricSpec("port.paused_ns", "counter", "ns", "net/port.py",
               "§4.1", "cumulative time the port spent pause-throttled"),
    MetricSpec("port.pause_duration_ns", "histogram", "ns", "net/port.py",
               "§4.1", "distribution of individual pause grants"),
    MetricSpec("port.tx_bytes", "counter", "bytes", "net/port.py",
               "", "payload bytes transmitted (polled)"),
    MetricSpec("port.rx_bytes", "counter", "bytes", "net/port.py",
               "", "payload bytes received (polled)"),
    # -- switch buffer / ECN / PFC (switch/) ----------------------------
    MetricSpec("switch.queued_bytes", "gauge", "bytes", "switch/switch.py",
               "§3", "total bytes queued across egress ports (polled)"),
    MetricSpec("switch.shared_in_use", "gauge", "bytes", "switch/buffer.py",
               "§3", "shared-pool occupancy (polled)"),
    MetricSpec("switch.headroom_in_use", "gauge", "bytes", "switch/buffer.py",
               "§3", "PFC headroom occupancy (polled)"),
    MetricSpec("switch.paused_pgs", "gauge", "pgs", "switch/buffer.py",
               "§4.1", "priority groups currently pause-asserted (polled)"),
    MetricSpec("switch.ecn_marked", "counter", "packets", "switch/switch.py",
               "§3", "packets CE-marked at enqueue"),
    MetricSpec("switch.ecn_queue_bytes", "histogram", "bytes", "switch/ecn.py",
               "§3", "egress queue depth seen at each ECN mark"),
    MetricSpec("switch.lossy_drops", "counter", "packets", "switch/buffer.py",
               "§3", "tail drops on lossy (non-PFC) priorities"),
    MetricSpec("switch.headroom_overflow_drops", "counter", "packets",
               "switch/buffer.py", "§4.1",
               "lossless drops after headroom exhaustion"),
    MetricSpec("switch.headroom_spill_bytes", "counter", "bytes",
               "switch/buffer.py", "§4.1",
               "bytes admitted into PFC headroom after pause assert"),
    MetricSpec("switch.pfc_pause_sent", "counter", "frames", "switch/pfc.py",
               "§4.1", "pauses asserted by the switch-side signaler"),
    MetricSpec("switch.pfc_resume_sent", "counter", "frames", "switch/pfc.py",
               "§4.1", "resumes sent by the switch-side signaler"),
    MetricSpec("switch.watchdog_trips", "counter", "trips", "switch/switch.py",
               "§4.3", "switch PFC-storm watchdog activations"),
    # -- NIC (nic/nic.py) ----------------------------------------------
    MetricSpec("nic.pause_generated", "counter", "frames", "nic/nic.py",
               "§4.1", "pause frames generated by the host NIC"),
    MetricSpec("nic.resume_generated", "counter", "frames", "nic/nic.py",
               "§4.1", "resume frames generated by the host NIC"),
    MetricSpec("nic.rx_processed", "counter", "packets", "nic/nic.py",
               "", "packets drained by the NIC receive pipeline (polled)"),
    MetricSpec("nic.watchdog_trips", "counter", "trips", "nic/nic.py",
               "§4.3", "NIC pause-storm watchdog activations"),
    MetricSpec("nic.rx_pipeline_faults", "counter", "faults", "nic/nic.py",
               "§4.3", "injected receive-pipeline stalls (fault marker)"),
    # -- RDMA transport / DCQCN (rdma/qp.py, dcqcn/rp.py) ---------------
    MetricSpec("qp.cnps_sent", "counter", "packets", "rdma/qp.py",
               "§3", "congestion notification packets sent by receivers"),
    MetricSpec("qp.naks_sent", "counter", "packets", "rdma/qp.py",
               "§2", "NAKs sent (go-back-N retransmit requests)"),
    MetricSpec("dcqcn.cnps_handled", "counter", "packets", "dcqcn/rp.py",
               "§3", "CNPs absorbed by reaction points (rate decreases)"),
    MetricSpec("dcqcn.rate_bps", "gauge", "bps", "dcqcn/rp.py",
               "§3", "reaction-point current rate after each decrease"),
]

CATALOG_BY_NAME = {spec.name: spec for spec in CATALOG}


class Counter:
    """Monotonic accumulator (hook-fed or polled-absolute)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def set_absolute(self, value):
        # Polled metrics mirror a device counter directly.
        self.value = value


class Gauge:
    """Point-in-time value; keeps the running peak for summaries."""

    __slots__ = ("value", "peak")
    kind = "gauge"

    def __init__(self):
        self.value = 0
        self.peak = 0

    def set(self, value):
        self.value = value
        if value > self.peak:
            self.peak = value


class Histogram:
    """Power-of-two bucketed histogram: bucket i counts values in
    ``[2**(i-1), 2**i)`` (bucket 0 is exactly zero)."""

    __slots__ = ("buckets", "count", "total")
    kind = "histogram"

    def __init__(self):
        self.buckets = {}
        self.count = 0
        self.total = 0

    def observe(self, value):
        self.count += 1
        self.total += value
        bucket = int(value).bit_length() if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def quantile(self, q):
        """Upper bound of the bucket containing quantile ``q`` (0..1)."""
        if not self.count:
            return 0
        target = q * self.count
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= target:
                return (1 << bucket) if bucket else 0
        return 1 << max(self.buckets)

    def as_dict(self):
        return {
            "count": self.count,
            "total": self.total,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class RingSeries:
    """Fixed-capacity ring buffer of ``(t_ns, value)`` samples."""

    __slots__ = ("capacity", "_items", "_head", "dropped")

    def __init__(self, capacity=4096):
        self.capacity = capacity
        self._items = []
        self._head = 0
        self.dropped = 0

    def append(self, t_ns, value):
        if len(self._items) < self.capacity:
            self._items.append((t_ns, value))
        else:
            self._items[self._head] = (t_ns, value)
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    def __len__(self):
        return len(self._items)

    def items(self):
        """Samples in chronological order."""
        return self._items[self._head:] + self._items[:self._head]


class MetricRegistry:
    """All live metric instances for one session, keyed ``(name, device)``.

    ``device`` is the owning device's name string ("h0", "tor1", ...) or
    ``""`` for fabric-wide aggregates.  Unknown metric names are
    rejected so the catalog stays authoritative.
    """

    _FACTORY = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self, series_capacity=4096):
        self.series_capacity = series_capacity
        self._metrics = OrderedDict()
        self._series = OrderedDict()

    def get(self, name, device=""):
        key = (name, device)
        metric = self._metrics.get(key)
        if metric is None:
            spec = CATALOG_BY_NAME.get(name)
            if spec is None:
                raise KeyError("metric %r is not in the telemetry catalog"
                               % (name,))
            metric = self._FACTORY[spec.kind]()
            self._metrics[key] = metric
        return metric

    def series(self, name, device=""):
        key = (name, device)
        ring = self._series.get(key)
        if ring is None:
            ring = self._series[key] = RingSeries(self.series_capacity)
        return ring

    def record_sample(self, t_ns, name, device, value):
        """Append one polled sample to the metric's ring series."""
        self.series(name, device).append(t_ns, value)

    def metrics(self):
        """Iterate ``(name, device, metric)`` in insertion order."""
        for (name, device), metric in self._metrics.items():
            yield name, device, metric

    def all_series(self):
        """Iterate ``(name, device, ring)`` in insertion order."""
        for (name, device), ring in self._series.items():
            yield name, device, ring

    def snapshot_values(self):
        """Flat ``{name|device: value}`` map for summaries/exports."""
        out = OrderedDict()
        for name, device, metric in self.metrics():
            key = "%s|%s" % (name, device) if device else name
            if metric.kind == "histogram":
                out[key] = metric.as_dict()
            else:
                out[key] = metric.value
        return out

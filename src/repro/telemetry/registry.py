"""Metric catalog and the registry of hook-fed metrics.

The registry is the passive half of the telemetry subsystem: it declares
every metric (unit, source module, paper counterpart) and owns the few
metric objects a poll cannot fill, but never touches the simulator.  The
active half -- :mod:`repro.telemetry.session` -- polls every counter and
gauge from the model through ``monitoring/counters.py`` and feeds the
registry from hot-path hooks; the detectors read its poll windows and
the exporters the artifact it writes.

Design notes
------------
* Metrics are keyed on ``(name, device)`` so one catalog entry fans out
  to per-device instances; the catalog (``MetricSpec``) is declared once
  in :data:`CATALOG` and rendered into docs/telemetry.md.
* A metric with a ``reading`` is the reader value of that name, so the
  model's counter is its one copy; only hook-fed metrics (no
  ``reading``) live in the registry.
* ``Histogram`` uses power-of-two buckets: ``observe(v)`` lands in
  bucket ``ceil(log2(v+1))``, giving fixed memory and merge-free
  percentile estimates good to a factor of two -- plenty for queue-depth
  and pause-duration distributions.
"""

from collections import OrderedDict


class MetricSpec:
    """Catalog metadata for one metric family (see docs/telemetry.md).

    ``reading`` names the ``monitoring/counters.py`` reader value a poll
    takes the metric from ("" for a hook-fed metric).  ``port.*`` metrics
    exist on every device, ``switch.*`` on switches and the rest
    (``nic.``, ``qp.``, ``dcqcn.``) on host NICs (:meth:`on`).
    """

    __slots__ = ("name", "kind", "unit", "source", "paper", "help", "reading")

    def __init__(self, name, kind, unit, source, paper, help, reading=""):
        self.name = name
        self.kind = kind  # "counter" | "gauge" | "histogram"
        self.unit = unit
        self.source = source  # module that feeds it
        self.paper = paper  # paper §4 counterpart, "" when none
        self.help = help
        self.reading = reading

    def on(self, is_host):
        """True when a host NIC (``is_host``) or a switch has this metric."""
        family = self.name.partition(".")[0]
        return family == "port" or (family == "switch") != is_host

    def as_record(self):
        return {
            "type": "metric",
            "name": self.name,
            "kind": self.kind,
            "unit": self.unit,
            "source": self.source,
            "paper": self.paper,
            "help": self.help,
            "reading": self.reading,
        }


#: The full metric catalog.  Every metric the session emits is declared
#: here; docs/telemetry.md and ``python -m repro metrics``
#: render from this list, and tests assert the two stay in sync.
CATALOG = [
    # -- port / link layer (net/port.py) --------------------------------
    MetricSpec("port.pause_tx", "counter", "frames", "net/port.py",
               "§4.1", "PFC pause frames transmitted by the device",
               "pause_tx"),
    MetricSpec("port.pause_rx", "counter", "frames", "net/port.py",
               "§4.1", "PFC pause frames received by the device",
               "pause_rx"),
    MetricSpec("port.resume_tx", "counter", "frames", "net/port.py",
               "§4.1", "PFC resume (zero-quanta) frames transmitted",
               "resume_tx"),
    MetricSpec("port.resume_rx", "counter", "frames", "net/port.py",
               "§4.1", "PFC resume (zero-quanta) frames received",
               "resume_rx"),
    MetricSpec("port.paused_ns", "counter", "ns", "net/port.py",
               "§4.1", "cumulative time the ports spent pause-throttled",
               "paused_ns"),
    MetricSpec("port.pause_duration_ns", "histogram", "ns", "net/port.py",
               "§4.1", "distribution of individual pause grants"),
    MetricSpec("port.tx_bytes", "counter", "bytes", "net/port.py",
               "", "payload bytes transmitted", "tx_bytes"),
    MetricSpec("port.rx_bytes", "counter", "bytes", "net/port.py",
               "", "payload bytes received", "rx_bytes"),
    # -- switch buffer / ECN / PFC (switch/) ----------------------------
    MetricSpec("switch.queued_bytes", "gauge", "bytes", "switch/switch.py",
               "§3", "total bytes queued across egress ports",
               "queued_bytes"),
    MetricSpec("switch.shared_in_use", "gauge", "bytes", "switch/buffer.py",
               "§3", "shared-pool occupancy", "shared_in_use"),
    MetricSpec("switch.headroom_in_use", "gauge", "bytes", "switch/buffer.py",
               "§3", "PFC headroom occupancy", "headroom_in_use"),
    MetricSpec("switch.paused_pgs", "gauge", "pgs", "switch/buffer.py",
               "§4.1", "priority groups currently pause-asserted",
               "paused_pgs"),
    MetricSpec("switch.ecn_marked", "counter", "packets", "switch/switch.py",
               "§3", "packets CE-marked at enqueue", "ecn_marked"),
    MetricSpec("switch.ecn_queue_bytes", "histogram", "bytes", "switch/ecn.py",
               "§3", "egress queue depth seen at each ECN mark"),
    MetricSpec("switch.lossy_drops", "counter", "packets", "switch/switch.py",
               "§3", "lossy (non-PFC) drops at buffer admission and the "
               "lossy egress cap", "lossy_drops"),
    MetricSpec("switch.headroom_overflow_drops", "counter", "packets",
               "switch/switch.py", "§4.1",
               "lossless drops after headroom exhaustion",
               "headroom_overflow_drops"),
    MetricSpec("switch.headroom_spill_bytes", "counter", "bytes",
               "switch/buffer.py", "§4.1",
               "bytes admitted into PFC headroom after pause assert"),
    MetricSpec("switch.pfc_pause_sent", "counter", "frames", "switch/pfc.py",
               "§4.1", "pauses asserted by the switch-side signaler",
               "pfc_pause_sent"),
    MetricSpec("switch.pfc_resume_sent", "counter", "frames", "switch/pfc.py",
               "§4.1", "resumes sent by the switch-side signaler",
               "pfc_resume_sent"),
    MetricSpec("switch.watchdog_trips", "counter", "trips", "switch/switch.py",
               "§4.3", "switch PFC-storm watchdog activations",
               "watchdog_trips"),
    # -- NIC (nic/nic.py) ----------------------------------------------
    MetricSpec("nic.rx_processed", "counter", "packets", "nic/nic.py",
               "", "packets drained by the NIC receive pipeline",
               "rx_processed"),
    MetricSpec("nic.watchdog_trips", "counter", "trips", "nic/nic.py",
               "§4.3", "NIC pause-storm watchdog activations",
               "watchdog_trips"),
    MetricSpec("nic.rx_pipeline_faults", "counter", "faults", "nic/nic.py",
               "§4.3", "injected receive-pipeline stalls (fault marker)"),
    # -- RDMA transport / DCQCN (rdma/qp.py, dcqcn/rp.py) ---------------
    MetricSpec("qp.cnps_sent", "counter", "packets", "rdma/qp.py",
               "§3", "congestion notification packets sent by the "
               "host's QPs", "cnps_sent"),
    MetricSpec("qp.naks_sent", "counter", "packets", "rdma/qp.py",
               "§2", "NAKs sent by the host's QPs (go-back-N retransmit "
               "requests)", "naks_sent"),
    MetricSpec("dcqcn.cnps_handled", "counter", "packets", "dcqcn/rp.py",
               "§3", "CNPs absorbed by the host's reaction points "
               "(rate decreases)", "cnps_handled"),
    MetricSpec("dcqcn.rate_bps", "gauge", "bps", "dcqcn/rp.py",
               "§3", "sum of the current rates of the host's DCQCN "
               "reaction points", "rate_bps"),
]

CATALOG_BY_NAME = {spec.name: spec for spec in CATALOG}


class Counter:
    """Monotonic accumulator fed by a hook."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


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


class MetricRegistry:
    """The hook-fed metric instances of one session, keyed ``(name, device)``.

    ``device`` is the owning device's name string ("T0", "h0.nic", ...)
    or ``""`` for fabric-wide aggregates.  Unknown metric names are
    rejected so the catalog stays authoritative, and so are polled ones:
    their one copy is the model's counter.
    """

    _FACTORY = {"counter": Counter, "histogram": Histogram}

    def __init__(self):
        self._metrics = OrderedDict()

    def get(self, name, device=""):
        key = (name, device)
        metric = self._metrics.get(key)
        if metric is None:
            spec = CATALOG_BY_NAME.get(name)
            if spec is None:
                raise KeyError("metric %r is not in the telemetry catalog"
                               % (name,))
            if spec.reading:
                raise KeyError("metric %r is polled from the model, not kept "
                               "in the registry" % (name,))
            metric = self._FACTORY[spec.kind]()
            self._metrics[key] = metric
        return metric

    def snapshot_values(self):
        """Flat ``{name|device: value}`` map for summaries/exports."""
        out = OrderedDict()
        for (name, device), metric in self._metrics.items():
            key = "%s|%s" % (name, device) if device else name
            if metric.kind == "histogram":
                out[key] = metric.as_dict()
            else:
                out[key] = metric.value
        return out

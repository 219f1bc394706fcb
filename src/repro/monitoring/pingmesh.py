"""RDMA Pingmesh: active latency measurement (paper section 5.3).

"RDMA Pingmesh launches RDMA probes, with payload size 512 bytes, to the
servers at different locations ... and logs the measured RTT (if probes
succeed) or error code (if probes fail)."

A probe here is a 512-byte SEND whose RTT is the post-to-completion time
(the completion requires the responder's ACK, so the path is traversed
both ways).  A probe that does not complete within the timeout is logged
as an error -- exactly how the paper infers "RDMA is working well or
not".

Unlike :mod:`repro.telemetry` (passive, out-of-band observation of the
simulator), Pingmesh is *active* measurement: its probes are real
simulated RDMA traffic that competes for queues and can itself be
paused -- which is the point, since that is what makes probe failure a
fabric-health signal.  A telemetry session attached to the same fabric
will therefore see the probe traffic in its port counters.

Probe logs export to JSONL (:meth:`Pingmesh.to_jsonl`) and summarize to
the paper's operator view -- RTT p50/p90/p99/p999 plus the per-error-code
breakdown (:meth:`Pingmesh.summary`, or offline via
``python -m repro pingmesh PROBES.jsonl``).  When the causal
tracing plane (:mod:`repro.tracing`) is armed, probe ops are traced like
any other op, so a slow probe's RTT decomposes into the same
queue/pause/serialization components as a real flow's FCT.
"""

from repro.rdma.qp import QpConfig
from repro.rdma.verbs import connect_qp_pair, post_send
from repro.sim.timer import Timer
from repro.sim.units import MS, US

PROBE_PAYLOAD_BYTES = 512


class ProbeResult:
    """One logged probe."""

    __slots__ = ("t_ns", "src", "dst", "rtt_ns", "error")

    def __init__(self, t_ns, src, dst, rtt_ns=None, error=None):
        self.t_ns = t_ns
        self.src = src
        self.dst = dst
        self.rtt_ns = rtt_ns
        self.error = error

    @property
    def ok(self):
        return self.error is None

    def as_record(self):
        return {
            "t_ns": self.t_ns,
            "src": self.src,
            "dst": self.dst,
            "rtt_ns": self.rtt_ns,
            "error": self.error,
        }

    def __repr__(self):
        if self.ok:
            return "ProbeResult(%s->%s, %dns)" % (self.src, self.dst, self.rtt_ns)
        return "ProbeResult(%s->%s, ERROR %s)" % (self.src, self.dst, self.error)


class _ProbePair:
    def __init__(self, pingmesh, src, dst, qp):
        self.pingmesh = pingmesh
        self.src = src
        self.dst = dst
        self.qp = qp
        self.outstanding_since = None

    def launch(self):
        now = self.pingmesh.sim.now
        if self.outstanding_since is not None:
            # Previous probe still pending: its slot timed out.
            self.pingmesh.results.append(
                ProbeResult(now, self.src.name, self.dst.name, error="timeout")
            )
        self.outstanding_since = now
        post_send(self.qp, PROBE_PAYLOAD_BYTES, on_complete=self._done)

    def _done(self, wr, completed_ns):
        if self.outstanding_since is None:
            return
        rtt = completed_ns - self.outstanding_since
        self.outstanding_since = None
        self.pingmesh.results.append(
            ProbeResult(completed_ns, self.src.name, self.dst.name, rtt_ns=rtt)
        )


class Pingmesh:
    """Schedules probes across registered pairs."""

    def __init__(self, sim, rng, interval_ns=1 * MS, traffic_class=None, qp_config=None):
        self.sim = sim
        self.rng = rng
        self.interval_ns = interval_ns
        self.qp_config = qp_config
        self.traffic_class = traffic_class
        self.results = []
        self._pairs = []
        self._timer = Timer(sim, self._tick, name="pingmesh")
        self._running = False

    def add_pair(self, src, dst):
        """Register a probing pair (one persistent QP pair)."""
        config = self.qp_config or QpConfig(traffic_class=self.traffic_class)
        qp_src, _qp_dst = connect_qp_pair(src, dst, self.rng, config_a=config, config_b=config)
        self._pairs.append(_ProbePair(self, src, dst, qp_src))

    def add_full_mesh(self, hosts):
        for src in hosts:
            for dst in hosts:
                if src is not dst:
                    self.add_pair(src, dst)

    def start(self):
        self._running = True
        self._tick()
        return self

    def stop(self):
        self._running = False
        self._timer.cancel()

    def _tick(self):
        for pair in self._pairs:
            pair.launch()
        if self._running:
            # Heavy jitter decorrelates probes from any periodic traffic
            # (PASTA-style sampling); without it a probe train can hide
            # in the gaps between equally periodic bursts.
            jitter = int(self.rng.uniform(0, self.interval_ns * 0.8))
            self._timer.start(max(1, self.interval_ns // 2 + jitter))

    # -- analysis ------------------------------------------------------------------

    def rtts_ns(self):
        return [r.rtt_ns for r in self.results if r.ok]

    def error_rate(self):
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if not r.ok) / len(self.results)

    def rtt_percentile_us(self, percentile):
        """RTT percentile in microseconds (paper reports p99/p99.9)."""
        from repro.analysis.percentiles import percentile as pct

        rtts = self.rtts_ns()
        if not rtts:
            return None
        return pct(rtts, percentile) / US

    def error_breakdown(self):
        """``{error_code: count}`` over the failed probes."""
        counts = {}
        for result in self.results:
            if not result.ok:
                counts[result.error] = counts.get(result.error, 0) + 1
        return counts

    def summary(self):
        """The operator view: counts, error rate, RTT percentiles in us
        (p50/p90/p99/p999 -- the paper's section 5.3 latency report) and
        the per-error-code breakdown."""
        return summarize_probe_records(r.as_record() for r in self.results)

    def to_jsonl(self, path):
        """Export the probe log as JSON Lines; returns the path.

        One object per probe: ``{"t_ns", "src", "dst", "rtt_ns",
        "error"}`` -- read back with :func:`read_probe_jsonl` or fed to
        ``python -m repro pingmesh``.
        """
        from repro.artifact import write_jsonl

        return write_jsonl([result.as_record() for result in self.results], path)


def read_probe_jsonl(path):
    """Read an exported probe log back into a list of record dicts
    (:class:`repro.artifact.ArtifactError` when it is not one)."""
    from repro.artifact import ArtifactError, read_jsonl

    records = read_jsonl(path)
    for number, record in enumerate(records, 1):
        if "rtt_ns" not in record or "error" not in record:
            raise ArtifactError(path, number, "not a pingmesh probe record")
    return records


def summarize_probe_records(records):
    """Summarize probe records (dicts or :class:`ProbeResult` logs read
    back via :func:`read_probe_jsonl`).

    Returns ``{"probes", "ok", "error_rate", "rtt_us": {"count", "p50",
    "p90", "p99", "p999"}, "errors": {code: count}}``; the percentile
    keys are None when no probe succeeded.
    """
    from repro.analysis.percentiles import percentile as pct

    rtts = []
    errors = {}
    total = 0
    for record in records:
        total += 1
        error = record.get("error")
        if error is None:
            rtts.append(record["rtt_ns"])
        else:
            errors[error] = errors.get(error, 0) + 1
    failed = total - len(rtts)
    rtt_us = {"count": len(rtts), "p50": None, "p90": None, "p99": None,
              "p999": None}
    if rtts:
        for key, q in (("p50", 50), ("p90", 90), ("p99", 99), ("p999", 99.9)):
            rtt_us[key] = pct(rtts, q) / US
    return {
        "probes": total,
        "ok": len(rtts),
        "error_rate": (failed / total) if total else 0.0,
        "rtt_us": rtt_us,
        "errors": errors,
    }

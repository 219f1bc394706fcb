"""Traffic pattern generators.

Message sizes: generators that hold a seeded rng (``PeriodicIncast``,
``PoissonRequests``) accept either a plain byte count or a sampler from
:mod:`repro.workloads.distributions` (anything with ``sample(rng)``), so
packet-level runs can draw from the same storage/web CDFs the flow-level
simulator uses.
"""

from repro.sim.timer import Timer
from repro.workloads.distributions import interarrival_ns, resolve_size


class ClosedLoopSender:
    """Sends ``message_bytes`` back to back "as fast as possible".

    Used by the livelock experiment (4 MB SENDs), the figure 7/8
    saturation runs, and anywhere the paper says a connection "sent data
    as fast as possible".  ``max_messages`` bounds the run (None =
    forever); ``pipeline_depth`` keeps several messages posted so the
    transport never idles between completions.
    """

    def __init__(self, channel, message_bytes, max_messages=None, pipeline_depth=2):
        self.channel = channel
        self.message_bytes = message_bytes
        self.max_messages = max_messages
        self.pipeline_depth = pipeline_depth
        self.completed_messages = 0
        self.completed_bytes = 0
        self.latencies_ns = []
        self._posted = 0
        self._started = False
        self._stopped = False

    def start(self):
        self._started = True
        for _ in range(self.pipeline_depth):
            self._post_next()
        return self

    def stop(self):
        """Stop posting new messages; in-flight messages still complete.

        Afterwards the loop quiesces once ``completed_messages`` catches
        up with ``posted_messages`` -- the drain condition the
        validation harness waits on."""
        self._stopped = True
        return self

    @property
    def posted_messages(self):
        return self._posted

    def _post_next(self):
        if self._stopped:
            return
        if self.max_messages is not None and self._posted >= self.max_messages:
            return
        self._posted += 1
        self.channel.send(self.message_bytes, on_delivered=self._on_delivered)

    def _on_delivered(self, latency_ns):
        self.completed_messages += 1
        self.completed_bytes += self.message_bytes
        self.latencies_ns.append(latency_ns)
        self._post_next()


class PeriodicIncast:
    """Many-to-one bursts: every ``period_ns`` all fan-in channels fire
    ``burst_bytes`` at once toward the victim.

    This is the paper's recurring villain: "the traffic was bursty with
    the typical many-to-one incast traffic pattern" (figure 6's service)
    and "once the responses came back to the chatty servers, incast
    happened" (the section 6.2 alpha incident).
    """

    def __init__(self, sim, channels, burst_bytes, period_ns, rng=None, jitter_ns=0, max_rounds=None):
        self.sim = sim
        self.channels = channels
        self.burst_bytes = burst_bytes
        self.period_ns = period_ns
        self.rng = rng
        self.jitter_ns = jitter_ns
        self.max_rounds = max_rounds
        self.rounds_fired = 0
        self.deliveries = 0
        self.latencies_ns = []
        self._timer = Timer(sim, self._fire, name="incast")
        self._running = False

    def start(self, initial_delay_ns=0):
        self._running = True
        self._timer.start(initial_delay_ns)
        return self

    def stop(self):
        self._running = False
        self._timer.cancel()

    def _fire(self):
        self.rounds_fired += 1
        for channel in self.channels:
            delay = 0
            if self.jitter_ns and self.rng is not None:
                delay = int(self.rng.uniform(0, self.jitter_ns))
            self.sim.schedule(delay, self._send_one, channel)
        if self._running and (
            self.max_rounds is None or self.rounds_fired < self.max_rounds
        ):
            self._timer.start(self.period_ns)

    def _send_one(self, channel):
        nbytes = self.burst_bytes
        if hasattr(nbytes, "sample"):
            if self.rng is None:
                raise ValueError("burst size sampler requires an rng")
            nbytes = resolve_size(nbytes, self.rng)
        channel.send(nbytes, on_delivered=self._on_delivered)

    def _on_delivered(self, latency_ns):
        self.deliveries += 1
        self.latencies_ns.append(latency_ns)


class PoissonRequests:
    """Open-loop request generator: messages of ``message_bytes`` at
    exponential inter-arrivals over a pool of channels (one channel
    drawn uniformly per request).  ``message_bytes`` may be an int or a
    size sampler (e.g. :data:`repro.workloads.distributions.WEB_CDF`)."""

    def __init__(self, sim, channels, message_bytes, rate_per_second, rng, max_requests=None):
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.channels = channels
        self.message_bytes = message_bytes
        self.rate_per_second = rate_per_second
        self.rng = rng
        self.max_requests = max_requests
        self.sent = 0
        self.latencies_ns = []
        self._timer = Timer(sim, self._fire, name="poisson")
        self._running = False

    def start(self):
        self._running = True
        self._schedule_next()
        return self

    def stop(self):
        self._running = False
        self._timer.cancel()

    def _schedule_next(self):
        self._timer.start(interarrival_ns(self.rng, self.rate_per_second))

    def _fire(self):
        if self.max_requests is not None and self.sent >= self.max_requests:
            self._running = False
            return
        self.sent += 1
        channel = self.rng.choice(self.channels)
        nbytes = resolve_size(self.message_bytes, self.rng)
        channel.send(nbytes, on_delivered=self.latencies_ns.append)
        if self._running:
            self._schedule_next()

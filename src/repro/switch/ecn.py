"""RED/ECN marking at the egress queue -- DCQCN's congestion point (CP).

DCQCN (Zhu et al. [42], deployed by the paper) has the switch mark
ECN-capable packets based on the *instantaneous* egress queue length with
RED-style probabilities:

* queue <= Kmin          -> never mark
* Kmin < queue < Kmax    -> mark with probability rising linearly to Pmax
* queue >= Kmax          -> always mark

"Small queue lengths reduce the PFC generation and propagation
probability" (section 2) -- ECN marks slow senders *before* the PFC XOFF
threshold is hit, so DCQCN's Kmin/Kmax sit well below XOFF.
"""

from repro.sim.units import KB
from repro.obs import TELEMETRY as _TELEMETRY


class EcnConfig:
    """RED/ECN marking parameters for lossless egress queues."""

    def __init__(self, kmin_bytes=40 * KB, kmax_bytes=160 * KB, pmax=0.1, enabled=True):
        if kmin_bytes > kmax_bytes:
            raise ValueError("Kmin must not exceed Kmax")
        if not 0 <= pmax <= 1:
            raise ValueError("Pmax is a probability: %r" % (pmax,))
        self.kmin_bytes = kmin_bytes
        self.kmax_bytes = kmax_bytes
        self.pmax = pmax
        self.enabled = enabled

    def mark_probability(self, queue_bytes):
        """Marking probability at an instantaneous queue depth."""
        if not self.enabled or queue_bytes <= self.kmin_bytes:
            return 0.0
        if queue_bytes >= self.kmax_bytes:
            return 1.0
        span = self.kmax_bytes - self.kmin_bytes
        return self.pmax * (queue_bytes - self.kmin_bytes) / span

    def should_mark(self, queue_bytes, rng):
        """Bernoulli draw at the current queue depth."""
        probability = self.mark_probability(queue_bytes)
        if probability <= 0.0:
            return False
        if probability < 1.0 and not rng.random() < probability:
            return False
        # Telemetry sees the queue depth at every mark (the histogram
        # that answers "where inside [Kmin, Kmax] do we actually mark?").
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_ecn_mark(queue_bytes)
        return True

    def __repr__(self):
        return "EcnConfig(Kmin=%dB, Kmax=%dB, Pmax=%.3f%s)" % (
            self.kmin_bytes,
            self.kmax_bytes,
            self.pmax,
            "" if self.enabled else ", disabled",
        )

"""Declarative fault schedules.

A :class:`FaultPlan` is data, not code: a list of "at t, do X to Y"
entries plus standing per-packet rules, referring to targets by *name*
(host/switch names, or ``(device, device)`` link endpoint pairs).  The
same plan can therefore be applied to freshly built fabrics over and
over -- which is what makes fault-injected runs fingerprintable: same
seed + same plan => bit-identical counters.
"""

from repro.faults.injector import FaultInjector, MATCHERS
from repro.sim.rng import SeededRng
from repro.sim.units import US, fmt_time


class _PlanAction:
    """One scheduled or standing injector call."""

    __slots__ = ("at_ns", "method", "target", "kwargs")

    def __init__(self, at_ns, method, target, kwargs):
        self.at_ns = at_ns  # None: apply immediately (standing rule)
        self.method = method
        self.target = target
        self.kwargs = kwargs

    def __repr__(self):
        when = "t=%s" % fmt_time(self.at_ns) if self.at_ns is not None else "standing"
        return "%s(%r%s) [%s]" % (
            self.method,
            self.target,
            "".join(", %s=%r" % kv for kv in sorted(self.kwargs.items())),
            when,
        )


class FaultPlan:
    """A named, seeded, declarative fault schedule.

    All methods return ``self`` so plans chain; ``at_ns=None`` means
    "from the start".  Targets are names (resolved against the fabric at
    apply time), so a plan is reusable across rebuilt topologies.
    """

    def __init__(self, name="plan", seed=0):
        self.name = name
        self.seed = seed
        self._actions = []

    def add(self, method, target, at_ns=None, **kwargs):
        """Schedule any :class:`FaultInjector` method by name."""
        if not hasattr(FaultInjector, method):
            raise ValueError("FaultInjector has no action %r" % (method,))
        self._actions.append(_PlanAction(at_ns, method, target, kwargs))
        return self

    # -- sugar ----------------------------------------------------------------

    def link_down(self, target, at_ns):
        return self.add("link_down", target, at_ns=at_ns)

    def link_up(self, target, at_ns):
        return self.add("link_up", target, at_ns=at_ns)

    def flap_link(self, target, at_ns, down_ns=100 * US):
        return self.add("flap_link", target, at_ns=at_ns, down_ns=down_ns)

    def drop(self, target, probability=1.0, match="any", count=None, at_ns=None):
        return self.add(
            "drop_packets", target, at_ns=at_ns,
            probability=probability, match=match, count=count,
        )

    def corrupt(self, target, probability=1.0, match="any", count=None, at_ns=None):
        return self.add(
            "corrupt_packets", target, at_ns=at_ns,
            probability=probability, match=match, count=count,
        )

    def reorder(self, target, delay_ns, probability=1.0, match="data", at_ns=None):
        return self.add(
            "reorder_packets", target, at_ns=at_ns,
            delay_ns=delay_ns, probability=probability, match=match,
        )

    def blackhole_arp(self, target, at_ns=None):
        return self.add("blackhole_arp", target, at_ns=at_ns)

    def freeze_nic_rx(self, target, at_ns):
        return self.add("freeze_nic_rx", target, at_ns=at_ns)

    def repair_nic(self, target, at_ns):
        return self.add("repair_nic", target, at_ns=at_ns)

    def kill_host(self, target, at_ns):
        return self.add("kill_host", target, at_ns=at_ns)

    def degrade_mtt(self, target, at_ns, entries=64, page_bytes=4096, miss_penalty_ns=3000):
        return self.add(
            "degrade_mtt", target, at_ns=at_ns,
            entries=entries, page_bytes=page_bytes, miss_penalty_ns=miss_penalty_ns,
        )

    def expire_mac(self, target, at_ns):
        return self.add("expire_mac", target, at_ns=at_ns)

    def drift_dscp_map(self, target, dscp_to_priority, at_ns):
        return self.add(
            "drift_dscp_map", target, at_ns=at_ns,
            dscp_to_priority=dict(dscp_to_priority),
        )

    def drift_buffer_alpha(self, target, alpha, at_ns):
        return self.add("drift_buffer_alpha", target, at_ns=at_ns, alpha=alpha)

    # -- application ------------------------------------------------------------

    def apply(self, fabric):
        """Arm this plan on a fabric; returns the :class:`FaultInjector`.

        Standing rules install immediately; timed actions are scheduled
        at their absolute times (which must not be in the past).
        """
        injector = FaultInjector(
            fabric, rng=SeededRng(self.seed, "faultplan/%s" % self.name), name=self.name
        )
        for action in self._actions:
            method = getattr(injector, action.method)
            if action.at_ns is None:
                method(action.target, **action.kwargs)
            else:
                fabric.sim.at(
                    action.at_ns, self._fire, method, action.target, action.kwargs
                )
        return injector

    @staticmethod
    def _fire(method, target, kwargs):
        method(target, **kwargs)

    def __repr__(self):
        return "FaultPlan(%s, seed=%d, %d actions)" % (
            self.name, self.seed, len(self._actions),
        )


__all__ = ["FaultPlan", "MATCHERS"]

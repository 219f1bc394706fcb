"""Seeded random validation scenarios.

One integer seed fully determines a scenario: a small Clos slice (one
ToR, a two-tier leaf/ToR fabric, or a three-tier podset pair) with a
line rate drawn from the deployed menu, an ECN on/off toggle, an
optional deterministic ingress loss process (the section 4.1 testbed's
1/256 IP-ID filter), and a workload matrix of closed-loop RDMA flows.

The same generator serves two masters:

* a standalone deterministic enumerator -- ``generate_scenario(seed)``
  for the ``python -m repro validate`` sweep and the campaign target;
  the tests' Hypothesis strategy maps drawn integers through the same
  function, so shrinking a failure shrinks the seed, and any seed it
  finds replays verbatim in the CLI.

Scenarios are plain data (``to_dict``/``from_dict`` round-trip through
JSON), which is what makes repro artifacts replayable.
"""

from repro.sim.rng import SeededRng
from repro.topo.spec import (
    clos_spec,
    deadlock_quad_spec,
    single_switch_spec,
    two_tier_spec,
)

#: Line-rate menu (Gb/s): the NIC generations the paper's fleet mixes.
LINK_GBPS_MENU = (10, 25, 40, 100)

#: Message sizes (KiB).  Multiples of the 1 KiB MTU payload, so packet
#: counts are exact and goodput accounting has no partial-packet tail.
MESSAGE_KB_MENU = (64, 128, 256)

#: At most this many flows converge on one receiver.  Deep incast puts
#: the fabric into PFC head-of-line regimes where per-flow rates are
#: dominated by pause coupling rather than fair sharing; that regime is
#: covered by the dedicated pathology experiments (E1/E2/E5), not by
#: the fair-share differential oracle.
MAX_FLOWS_PER_DST = 2

MAX_FLOWS = 6

_KIND_MENU = ("single", "single", "two_tier", "two_tier", "clos")

#: Scenario kind -> the spec generator its ``dims`` are the arguments of
#: ("deadlock" is figure 4's fixed quad: no dims, the cast S1..S7).
KIND_SPECS = {
    "single": single_switch_spec,
    "two_tier": two_tier_spec,
    "clos": clos_spec,
    "deadlock": deadlock_quad_spec,
}


class ValidationScenario:
    """A fully specified randomized-fabric run.  Plain data."""

    def __init__(
        self,
        seed,
        kind,
        dims,
        link_gbps,
        flows,
        ecn=False,
        lossy=False,
        warmup_us=150,
        measure_us=400,
        drain_ms=20,
        dead_hosts=(),
    ):
        self.seed = seed
        self.kind = kind
        self.dims = dict(dims)
        self.link_gbps = link_gbps
        self.flows = [tuple(flow) for flow in flows]
        self.ecn = ecn
        self.lossy = lossy
        self.warmup_us = warmup_us
        self.measure_us = measure_us
        self.drain_ms = drain_ms
        self.dead_hosts = tuple(dead_hosts)

    # -- serialization (JSON-stable: the repro-artifact format) -------------

    def to_dict(self):
        data = {
            "seed": self.seed,
            "kind": self.kind,
            "dims": dict(self.dims),
            "link_gbps": self.link_gbps,
            "flows": [list(flow) for flow in self.flows],
            "ecn": self.ecn,
            "lossy": self.lossy,
            "warmup_us": self.warmup_us,
            "measure_us": self.measure_us,
            "drain_ms": self.drain_ms,
        }
        if self.dead_hosts:
            data["dead_hosts"] = list(self.dead_hosts)
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(
            seed=data["seed"],
            kind=data["kind"],
            dims=data["dims"],
            link_gbps=data["link_gbps"],
            flows=[tuple(flow) for flow in data["flows"]],
            ecn=data.get("ecn", False),
            lossy=data.get("lossy", False),
            warmup_us=data.get("warmup_us", 150),
            measure_us=data.get("measure_us", 400),
            drain_ms=data.get("drain_ms", 20),
            dead_hosts=data.get("dead_hosts", ()),
        )

    def replace(self, **overrides):
        """A copy with some fields overridden (the shrinker's workhorse)."""
        data = self.to_dict()
        data.setdefault("dead_hosts", list(self.dead_hosts))
        data.update(overrides)
        return ValidationScenario.from_dict(data)

    # -- derived ------------------------------------------------------------

    def host_count(self):
        return host_count(self.kind, self.dims)

    def describe(self):
        return "seed=%d %s%r %dG %d flow(s)%s%s" % (
            self.seed,
            self.kind,
            tuple(self.dims.values()),
            self.link_gbps,
            len(self.flows),
            " ecn" if self.ecn else "",
            " lossy" if self.lossy else "",
        )

    def __repr__(self):
        return "ValidationScenario(%s)" % self.describe()

    def __eq__(self, other):
        return (
            isinstance(other, ValidationScenario)
            and self.to_dict() == other.to_dict()
        )


def fabric_spec(kind, dims):
    """The :class:`~repro.topo.spec.FabricSpec` of a scenario's fabric."""
    if kind not in KIND_SPECS:
        raise ValueError("unknown scenario kind: %r" % (kind,))
    return KIND_SPECS[kind](**dims)


def host_count(kind, dims):
    return len(fabric_spec(kind, dims).hosts())


def generate_scenario(seed):
    """The deterministic seed -> scenario map.

    Draws only from :class:`SeededRng` (never from ``hash()`` or global
    state), so a seed means the same scenario on every interpreter and
    every ``PYTHONHASHSEED``.
    """
    rng = SeededRng(seed, "validation/scenario")
    kind = rng.choice(_KIND_MENU)
    if kind == "single":
        dims = {"n_hosts": rng.randint(2, 6)}
    elif kind == "two_tier":
        dims = {
            "n_tors": rng.randint(2, 3),
            "hosts_per_tor": rng.randint(2, 3),
            "n_leaves": rng.randint(1, 3),
        }
    else:
        leaves = rng.randint(1, 2)
        dims = {
            "n_podsets": 2,
            "tors_per_podset": rng.randint(1, 2),
            "hosts_per_tor": rng.randint(1, 2),
            "leaves_per_podset": leaves,
            "n_spines": leaves * rng.randint(1, 2),
        }
    n_hosts = host_count(kind, dims)
    lossy = rng.random() < 0.15
    flows = _draw_flows(rng, n_hosts, lossy)
    return ValidationScenario(
        seed=seed,
        kind=kind,
        dims=dims,
        link_gbps=rng.choice(LINK_GBPS_MENU),
        flows=flows,
        ecn=rng.random() < 0.3,
        lossy=lossy,
        warmup_us=150,
        # Loss recovery stalls flows for RTO stretches (500 us default),
        # so lossy runs need a window that averages over several of them.
        measure_us=2500 if lossy else rng.randint(400, 700),
        drain_ms=20,
    )


def _draw_flows(rng, n_hosts, lossy):
    # Lossy scenarios keep messages small: go-back-N legitimately slows
    # to a crawl recovering big messages through 1/256 loss, and the
    # drain oracle's budget must stay bounded.
    menu = MESSAGE_KB_MENU[:1] if lossy else MESSAGE_KB_MENU
    n_flows = rng.randint(1, min(MAX_FLOWS, max(1, n_hosts)))
    flows = []
    dst_load = {}
    for _ in range(n_flows):
        for _attempt in range(8):
            src = rng.randint(0, n_hosts - 1)
            dst = rng.randint(0, n_hosts - 1)
            if src == dst:
                continue
            if dst_load.get(dst, 0) >= MAX_FLOWS_PER_DST:
                continue
            dst_load[dst] = dst_load.get(dst, 0) + 1
            flows.append((src, dst, rng.choice(menu)))
            break
    if not flows:
        flows.append((0, 1, MESSAGE_KB_MENU[0]))
    return flows


def deadlock_probe_scenario():
    """The figure 4 deadlock testbed as a fixed scenario.

    Flows are named by host (the quad topology's cast is a dict, not a
    list); S3 and S2 are dead with live ARP entries, so their traffic is
    flooded unless the lossless-ARP drop is active.  Used by the
    ``no-arp-drop`` mutation check; the shrinker can still drop flows.
    """
    return ValidationScenario(
        seed=0,
        kind="deadlock",
        dims={},
        link_gbps=40,
        flows=[
            ("S1", "S3", 1024),
            ("S6", "S3", 1024),
            ("S1", "S5", 1024),
            ("S7", "S5", 1024),
            ("S4", "S2", 1024),
        ],
        warmup_us=500,
        measure_us=7500,
        drain_ms=8,
        dead_hosts=("S3", "S2"),
    )


def livelock_probe_scenario():
    """A lossy single-switch scenario with messages large enough that
    go-back-0 recovery can never complete one (the section 4.1
    livelock): 1 MiB = 1024 packets against a deterministic 1/256 drop.
    Go-back-N sails through it; the ``go-back-0`` mutation starves.
    """
    return ValidationScenario(
        seed=0,
        kind="single",
        dims={"n_hosts": 2},
        link_gbps=40,
        flows=[(0, 1, 1024)],
        lossy=True,
        warmup_us=200,
        measure_us=2500,
        drain_ms=10,
    )

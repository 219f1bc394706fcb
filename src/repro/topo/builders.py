"""Builders for the paper's topologies.

Every builder instantiates one :class:`~repro.topo.spec.FabricSpec` as a
:class:`Topology` -- the :class:`Fabric` plus named elements (ToRs,
leaves, spines, hosts) so experiments can address "S1" or "T1.p4" the
way the paper's figures do.  Scale parameters default to tractable
packet-level sizes; figure 7's full 1152-server fabric is reproduced
with the flow-level model in :mod:`repro.flows` instead, derived from
the same spec.
"""

from repro.sim.units import gbps
from repro.switch.buffer import BufferConfig
from repro.switch.ecn import EcnConfig
from repro.switch.pfc import PfcConfig
from repro.topo.fabric import Fabric
from repro.topo.spec import (
    clos_spec,
    deadlock_quad_spec,
    single_switch_spec,
    two_tier_spec,
)


class Topology:
    """The packet fabric of a spec.

    ``fabric`` / ``sim``
        The live :class:`Fabric` and its simulator.
    ``nodes``
        Spec name -> :class:`Switch` or :class:`Host`.
    ``hosts``
        Every host, in build order.

    The builders below add their figure's named elements.
    """

    def __init__(self, spec, rate_bps=None, pfc_config=None, buffer_config=None,
                 ecn_config=None, nic_config=None, seed=1, forwarding_kwargs=None):
        self.spec = spec
        self.fabric = fabric = Fabric(seed=seed, default_rate_bps=rate_bps or gbps(40))
        self.sim = fabric.sim
        self.nodes = nodes = {}
        pfc_config = pfc_config or PfcConfig()
        port_toward = {}  # (switch, neighbour) -> port index on switch
        for step in spec.build:
            kind, name = step[0], step[1]
            if kind == "switch":
                nodes[name] = fabric.add_switch(
                    name,
                    pfc_config=pfc_config,
                    buffer_config=buffer_config or BufferConfig(),
                    ecn_config=ecn_config or EcnConfig(enabled=False),
                    local_subnet=step[2],
                    mark_rng=fabric.rng.child("ecn/%s" % name),
                    forwarding_kwargs=dict(forwarding_kwargs or {}),
                )
            elif kind == "host":
                nodes[name] = fabric.add_host(
                    name, ip=step[2], nic_config=nic_config, pfc_config=pfc_config
                )
                fabric.connect_host(nodes[step[3]], nodes[name])
            else:
                _, lower, upper, cable_m = step
                lower_port, upper_port, _ = fabric.connect_switches(
                    nodes[lower], nodes[upper], cable_meters=cable_m
                )
                port_toward[lower, upper] = lower_port.index
                port_toward[upper, lower] = upper_port.index
        for name, routes in spec.routes.items():
            for prefix, prefix_len, neighbours in routes:
                nodes[name].tables.add_route(
                    prefix, prefix_len, [port_toward[name, hop] for hop in neighbours]
                )
        self._port_idx = port_toward
        self.hosts = list(fabric.hosts)

    def port_toward(self, switch, neighbour):
        """The :class:`Port` of ``switch`` cabled to ``neighbour`` (spec names)."""
        return self.nodes[switch].ports[self._port_idx[switch, neighbour]]

    def boot(self, settle_ns=100_000):
        self.fabric.boot(settle_ns)
        return self

    def tier(self, tier):
        """The switches of one tier (0 ToR, 1 leaf, 2 spine), in build order."""
        return [self.nodes[name] for name, t in self.spec.tiers.items() if t == tier]

    def hosts_under(self, tors):
        """``[[Host, ...], ...]``: each ToR's servers, in ``tors`` order."""
        by_tor = {tor.name: [] for tor in tors}
        for name, _ip, tor in self.spec.hosts():
            by_tor[tor].append(self.nodes[name])
        return list(by_tor.values())


def single_switch(
    n_hosts=2,
    rate_bps=None,
    pfc_config=None,
    buffer_config=None,
    ecn_config=None,
    nic_config=None,
    seed=1,
    forwarding_kwargs=None,
):
    """Servers S0..S(n-1) on one ToR, subnet 10.0.0.0/24 -- the livelock
    testbed of section 4.1.  Adds ``tor``."""
    topo = Topology(single_switch_spec(n_hosts), rate_bps, pfc_config, buffer_config,
                    ecn_config, nic_config, seed, forwarding_kwargs)
    (topo.tor,) = topo.tier(0)
    return topo


def two_tier(
    n_tors=2,
    hosts_per_tor=4,
    n_leaves=4,
    rate_bps=None,
    pfc_config=None,
    buffer_config=None,
    ecn_config=None,
    nic_config=None,
    seed=1,
    forwarding_kwargs=None,
):
    """ToRs each uplinked to every leaf; up-down ECMP routing.  Adds
    ``tors``, ``leaves`` and ``hosts_by_tor``.

    The paper's figure 8 testbed is ``two_tier(n_tors=2, hosts_per_tor=24,
    n_leaves=4)`` -- a 6:1 oversubscription at the ToR.
    """
    topo = Topology(two_tier_spec(n_tors, hosts_per_tor, n_leaves), rate_bps, pfc_config,
                    buffer_config, ecn_config, nic_config, seed, forwarding_kwargs)
    topo.tors, topo.leaves = topo.tier(0), topo.tier(1)
    topo.hosts_by_tor = topo.hosts_under(topo.tors)
    return topo


def three_tier_clos(
    n_podsets=2,
    tors_per_podset=2,
    hosts_per_tor=2,
    leaves_per_podset=2,
    n_spines=4,
    rate_bps=None,
    pfc_config=None,
    buffer_config=None,
    ecn_config=None,
    nic_config=None,
    seed=1,
    forwarding_kwargs=None,
):
    """A 3-tier Clos with up-down routing (figures 1 and 7); the wiring
    is :func:`repro.topo.spec.clos_spec`'s.  Adds ``spines`` and
    ``podsets``, a list of ``{"tors", "leaves", "hosts_by_tor"}`` dicts.
    """
    topo = Topology(
        clos_spec(n_podsets, tors_per_podset, hosts_per_tor, leaves_per_podset, n_spines),
        rate_bps, pfc_config, buffer_config, ecn_config, nic_config, seed, forwarding_kwargs,
    )
    tors, leaves = topo.tier(0), topo.tier(1)
    hosts_by_tor = topo.hosts_under(tors)
    topo.spines = topo.tier(2)
    topo.podsets = [
        {
            "tors": tors[p * tors_per_podset:(p + 1) * tors_per_podset],
            "leaves": leaves[p * leaves_per_podset:(p + 1) * leaves_per_podset],
            "hosts_by_tor": hosts_by_tor[p * tors_per_podset:(p + 1) * tors_per_podset],
        }
        for p in range(n_podsets)
    ]
    return topo


def deadlock_quad(
    rate_bps=None,
    pfc_config=None,
    buffer_config=None,
    nic_config=None,
    seed=1,
    force_figure4_paths=True,
    forwarding_kwargs=None,
):
    """Figure 4: S1,S2 (+S6 helper) under T0; S3,S4,S5 under T1, the ToRs
    cross-connected by La, Lb (:func:`repro.topo.spec.deadlock_quad_spec`
    has the cast and what ``force_figure4_paths`` pins).

    Adds ``t0``, ``t1``, ``la``, ``lb``; ``hosts`` is a dict name -> Host
    and ``ports`` a dict like ``"T0-La:down"`` (the ToR's port) /
    ``"T0-La:up"`` (the leaf's) -> Port.
    """
    topo = Topology(deadlock_quad_spec(force_figure4_paths), rate_bps, pfc_config,
                    buffer_config, None, nic_config, seed, forwarding_kwargs)
    topo.t0, topo.t1, topo.la, topo.lb = (topo.nodes[n] for n in ("T0", "T1", "La", "Lb"))
    topo.hosts = {host.name: host for host in topo.hosts}
    topo.ports = {}
    for lower, upper, _cable_m in topo.spec.trunks():
        topo.ports["%s-%s:down" % (lower, upper)] = topo.port_toward(lower, upper)
        topo.ports["%s-%s:up" % (lower, upper)] = topo.port_toward(upper, lower)
    return topo

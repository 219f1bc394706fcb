"""Reference twins: the seven pre-spec builders, verbatim.

Before ``repro.topo.spec`` the fabric was written down by hand three
times.  The packet builders (``topo/builders.py``) and the flow builders
(``flowsim/topo.py``) of that parent commit are copied below unchanged
-- wiring blocks, ``_switch_kwargs``, the hand-rolled path functions and
the unchecked address plan included -- and the spec-derived builders are
held to them on random shapes: the packet fabric equal in switch order,
names, ``base_mac``, host MAC/IP, port names per switch, routes per
switch and ``fabric.links`` order (everything a determinism fingerprint
digests), the flow topology equal in ``hosts``, ``host_ips``, ``links``
and every path.
"""

import itertools
import zlib

import pytest
from hypothesis import HealthCheck, given, settings

import repro.topo as new_topo
from repro.nic.nic import NicConfig
from repro.sim.units import gbps
from repro.switch.buffer import BufferConfig
from repro.switch.ecmp import ecmp_select
from repro.switch.ecn import EcnConfig
from repro.switch.pfc import PfcConfig
from repro.topo.fabric import Fabric
from tests.strategies import FABRIC_BUILDERS, fabric_shapes

# ============================================================================
# Verbatim from the parent commit: topo/fabric.py (address plan),
# topo/builders.py, flowsim/topo.py.  Do not edit.
# ============================================================================

UDP_PROTO = 17
ROCEV2_PORT = 4791
EFFICIENCY = 1024 / 1086.0


def host_ip(podset, tor, host):
    """The conventional address of a host: ``10.podset.tor.(host+1)``."""
    return (10 << 24) | (podset << 16) | (tor << 8) | (host + 1)


def tor_subnet(podset, tor):
    """``(prefix, prefix_len)`` of a ToR's server subnet."""
    return ((10 << 24) | (podset << 16) | (tor << 8), 24)


class _Topology:
    """Base: common construction helpers."""

    def __init__(self, fabric):
        self.fabric = fabric
        self.sim = fabric.sim

    def boot(self, settle_ns=100_000):
        self.fabric.boot(settle_ns)
        return self


def _switch_kwargs(fabric, name, pfc_config, buffer_config, ecn_config, local_subnet=None,
                   forwarding_kwargs=None):
    return dict(
        pfc_config=pfc_config,
        buffer_config=buffer_config or BufferConfig(),
        ecn_config=ecn_config or EcnConfig(enabled=False),
        local_subnet=local_subnet,
        mark_rng=fabric.rng.child("ecn/%s" % name),
        forwarding_kwargs=dict(forwarding_kwargs or {}),
    )


class SingleSwitchTopo(_Topology):
    """N servers under one ToR -- the livelock testbed of section 4.1."""

    def __init__(self, fabric, tor, hosts):
        super().__init__(fabric)
        self.tor = tor
        self.hosts = hosts


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
    """Servers S0..S(n-1) on one ToR, subnet 10.0.0.0/24."""
    fabric = Fabric(seed=seed, default_rate_bps=rate_bps or gbps(40))
    pfc_config = pfc_config or PfcConfig()
    tor = fabric.add_switch(
        "T0",
        **_switch_kwargs(
            fabric, "T0", pfc_config, buffer_config, ecn_config,
            local_subnet=tor_subnet(0, 0), forwarding_kwargs=forwarding_kwargs,
        )
    )
    hosts = []
    for i in range(n_hosts):
        host = fabric.add_host(
            "S%d" % i, ip=host_ip(0, 0, i), nic_config=nic_config, pfc_config=pfc_config
        )
        fabric.connect_host(tor, host)
        hosts.append(host)
    return SingleSwitchTopo(fabric, tor, hosts)


class TwoTierTopo(_Topology):
    """ToRs x Leaves -- the figure 8 testbed."""

    def __init__(self, fabric, tors, leaves, hosts_by_tor):
        super().__init__(fabric)
        self.tors = tors
        self.leaves = leaves
        self.hosts_by_tor = hosts_by_tor

    @property
    def hosts(self):
        return [h for hosts in self.hosts_by_tor for h in hosts]


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
    """ToRs each uplinked to every leaf; up-down ECMP routing.

    The paper's figure 8 testbed is ``two_tier(n_tors=2, hosts_per_tor=24,
    n_leaves=4)`` -- a 6:1 oversubscription at the ToR.
    """
    fabric = Fabric(seed=seed, default_rate_bps=rate_bps or gbps(40))
    pfc_config = pfc_config or PfcConfig()
    leaves = [
        fabric.add_switch(
            "L%d" % i,
            **_switch_kwargs(fabric, "L%d" % i, pfc_config, buffer_config, ecn_config,
                             forwarding_kwargs=forwarding_kwargs)
        )
        for i in range(n_leaves)
    ]
    tors = []
    hosts_by_tor = []
    for t in range(n_tors):
        tor = fabric.add_switch(
            "T%d" % t,
            **_switch_kwargs(
                fabric, "T%d" % t, pfc_config, buffer_config, ecn_config,
                local_subnet=tor_subnet(0, t), forwarding_kwargs=forwarding_kwargs,
            )
        )
        tors.append(tor)
        hosts = []
        for h in range(hosts_per_tor):
            host = fabric.add_host(
                "T%d-S%d" % (t, h),
                ip=host_ip(0, t, h),
                nic_config=nic_config,
                pfc_config=pfc_config,
            )
            fabric.connect_host(tor, host)
            hosts.append(host)
        hosts_by_tor.append(hosts)
    # Uplinks + routing: ToR default-routes up over all leaves (ECMP);
    # each leaf routes each ToR subnet down its direct port.
    for tor_idx, tor in enumerate(tors):
        uplink_ports = []
        for leaf in leaves:
            tor_port, leaf_port, _ = fabric.connect_switches(tor, leaf, cable_meters=20)
            uplink_ports.append(tor_port.index)
            prefix, plen = tor_subnet(0, tor_idx)
            leaf.tables.add_route(prefix, plen, [leaf_port.index])
        tor.tables.add_route(0, 0, uplink_ports)
    return TwoTierTopo(fabric, tors, leaves, hosts_by_tor)


class ThreeTierTopo(_Topology):
    """Podsets of ToR+Leaf, joined by a Spine layer (figures 1 and 7)."""

    def __init__(self, fabric, podsets, spines):
        super().__init__(fabric)
        self.podsets = podsets  # list of dicts: {"tors", "leaves", "hosts_by_tor"}
        self.spines = spines

    @property
    def hosts(self):
        return [
            h
            for podset in self.podsets
            for hosts in podset["hosts_by_tor"]
            for h in hosts
        ]


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
    """A 3-tier Clos with up-down routing.

    Each leaf connects to ``n_spines / leaves_per_podset`` spines (the
    paper's podsets have 4 leaves fanning out to 64 spines, 16 each);
    spine ``s`` connects to leaf ``s // (n_spines/leaves_per_podset)`` of
    every podset.
    """
    if n_spines % leaves_per_podset:
        raise ValueError("n_spines must be a multiple of leaves_per_podset")
    spines_per_leaf = n_spines // leaves_per_podset
    fabric = Fabric(seed=seed, default_rate_bps=rate_bps or gbps(40))
    pfc_config = pfc_config or PfcConfig()
    spines = [
        fabric.add_switch(
            "SP%d" % s,
            **_switch_kwargs(fabric, "SP%d" % s, pfc_config, buffer_config, ecn_config,
                             forwarding_kwargs=forwarding_kwargs)
        )
        for s in range(n_spines)
    ]
    podsets = []
    for p in range(n_podsets):
        leaves = [
            fabric.add_switch(
                "P%dL%d" % (p, l),
                **_switch_kwargs(fabric, "P%dL%d" % (p, l), pfc_config, buffer_config,
                                 ecn_config, forwarding_kwargs=forwarding_kwargs)
            )
            for l in range(leaves_per_podset)
        ]
        tors = []
        hosts_by_tor = []
        for t in range(tors_per_podset):
            tor = fabric.add_switch(
                "P%dT%d" % (p, t),
                **_switch_kwargs(
                    fabric, "P%dT%d" % (p, t), pfc_config, buffer_config, ecn_config,
                    local_subnet=tor_subnet(p, t), forwarding_kwargs=forwarding_kwargs,
                )
            )
            tors.append(tor)
            hosts = []
            for h in range(hosts_per_tor):
                host = fabric.add_host(
                    "P%dT%d-S%d" % (p, t, h),
                    ip=host_ip(p, t, h),
                    nic_config=nic_config,
                    pfc_config=pfc_config,
                )
                fabric.connect_host(tor, host)
                hosts.append(host)
            hosts_by_tor.append(hosts)
        # ToR <-> Leaf wiring within the podset.
        for t, tor in enumerate(tors):
            uplinks = []
            for leaf in leaves:
                tor_port, leaf_port, _ = fabric.connect_switches(tor, leaf, cable_meters=20)
                uplinks.append(tor_port.index)
                prefix, plen = tor_subnet(p, t)
                leaf.tables.add_route(prefix, plen, [leaf_port.index])
            tor.tables.add_route(0, 0, uplinks)
        podsets.append({"tors": tors, "leaves": leaves, "hosts_by_tor": hosts_by_tor})
    # Leaf <-> Spine wiring: leaf l of each podset connects to spines
    # [l*spines_per_leaf, (l+1)*spines_per_leaf).
    for p, podset in enumerate(podsets):
        for l, leaf in enumerate(podset["leaves"]):
            spine_uplinks = []
            for s in range(l * spines_per_leaf, (l + 1) * spines_per_leaf):
                leaf_port, spine_port, _ = fabric.connect_switches(
                    leaf, spines[s], cable_meters=300
                )
                spine_uplinks.append(leaf_port.index)
                # The spine reaches every ToR of podset p via this leaf.
                for t in range(tors_per_podset):
                    prefix, plen = tor_subnet(p, t)
                    spines[s].tables.add_route(prefix, plen, [spine_port.index])
            # The leaf reaches remote podsets via its spines.
            leaf.tables.add_route(0, 0, spine_uplinks)
    return ThreeTierTopo(fabric, podsets, spines)


class DeadlockQuadTopo(_Topology):
    """Figure 4's arrangement: T0, T1 ToRs cross-connected by La, Lb."""

    def __init__(self, fabric, t0, t1, la, lb, hosts, ports):
        super().__init__(fabric)
        self.t0 = t0
        self.t1 = t1
        self.la = la
        self.lb = lb
        self.hosts = hosts  # dict name -> Host (S1, S2 on T0; S3, S4, S5 on T1)
        self.ports = ports  # dict like "T0->La" -> Port


def deadlock_quad(
    rate_bps=None,
    pfc_config=None,
    buffer_config=None,
    nic_config=None,
    seed=1,
    force_figure4_paths=True,
    forwarding_kwargs=None,
):
    """Figure 4: S1,S2 (+S6 helper) under T0; S3,S4,S5 under T1.

    With ``force_figure4_paths`` the routes are pinned to the figure's
    paths -- T0 reaches T1's subnet only via La, and T1 reaches T0's
    subnet only via Lb -- so the cyclic dependency forms deterministically
    instead of depending on an ECMP draw.
    """
    fabric = Fabric(seed=seed, default_rate_bps=rate_bps or gbps(40))
    pfc_config = pfc_config or PfcConfig()

    def mk_switch(name, subnet=None):
        return fabric.add_switch(
            name,
            **_switch_kwargs(
                fabric, name, pfc_config, buffer_config, None,
                local_subnet=subnet, forwarding_kwargs=forwarding_kwargs,
            )
        )

    t0 = mk_switch("T0", tor_subnet(0, 0))
    t1 = mk_switch("T1", tor_subnet(0, 1))
    la = mk_switch("La")
    lb = mk_switch("Lb")
    hosts = {}
    for name, tor, podset_tor, idx in (
        ("S1", t0, (0, 0), 0),
        ("S2", t0, (0, 0), 1),
        ("S6", t0, (0, 0), 2),
        ("S3", t1, (0, 1), 0),
        ("S4", t1, (0, 1), 1),
        ("S5", t1, (0, 1), 2),
        # S7 is the figure's "other sources" of the incast congesting
        # T1's port to S5: a T1-local sender that oversubscribes the
        # S5 egress no matter what the uplinks carry.
        ("S7", t1, (0, 1), 3),
    ):
        host = fabric.add_host(
            name,
            ip=host_ip(podset_tor[0], podset_tor[1], idx),
            nic_config=nic_config,
            pfc_config=pfc_config,
        )
        fabric.connect_host(tor, host)
        hosts[name] = host
    ports = {}
    for lower, upper, tag in ((t0, la, "T0-La"), (t0, lb, "T0-Lb"), (t1, la, "T1-La"), (t1, lb, "T1-Lb")):
        lo_port, up_port, _ = fabric.connect_switches(lower, upper, cable_meters=20)
        ports["%s:down" % tag] = lo_port
        ports["%s:up" % tag] = up_port
    t0_subnet, t1_subnet = tor_subnet(0, 0), tor_subnet(0, 1)
    if force_figure4_paths:
        # T0 -> T1 subnet via La only; T1 -> T0 subnet via Lb only.
        t0.tables.add_route(t1_subnet[0], t1_subnet[1], [ports["T0-La:down"].index])
        t1.tables.add_route(t0_subnet[0], t0_subnet[1], [ports["T1-Lb:down"].index])
    else:
        t0.tables.add_route(
            t1_subnet[0], t1_subnet[1],
            [ports["T0-La:down"].index, ports["T0-Lb:down"].index],
        )
        t1.tables.add_route(
            t0_subnet[0], t0_subnet[1],
            [ports["T1-La:down"].index, ports["T1-Lb:down"].index],
        )
    # Leaves route each subnet down its direct ToR port.
    la.tables.add_route(t0_subnet[0], t0_subnet[1], [ports["T0-La:up"].index])
    la.tables.add_route(t1_subnet[0], t1_subnet[1], [ports["T1-La:up"].index])
    lb.tables.add_route(t0_subnet[0], t0_subnet[1], [ports["T0-Lb:up"].index])
    lb.tables.add_route(t1_subnet[0], t1_subnet[1], [ports["T1-Lb:up"].index])
    return DeadlockQuadTopo(fabric, t0, t1, la, lb, hosts, ports)


def _seed(name):
    """Per-switch ECMP seed: stable across processes and runs."""
    return zlib.crc32(name.encode("ascii"))


def link_id(a, b):
    """Directed link identifier for the hop ``a -> b``."""
    return a + ">" + b


class FlowTopology:
    """Capacity graph + path resolver for :class:`repro.flowsim.FlowSim`.

    ``links``
        Mapping directed-link id -> wire rate (bits/second).
    ``hosts``
        List of host names; flows address endpoints by index.
    ``host_ips``
        Parallel list of IPv4 ints (the packet fabric's address plan).
    """

    __slots__ = ("name", "links", "hosts", "host_ips", "_path_fn")

    def __init__(self, name, links, hosts, host_ips, path_fn):
        self.name = name
        self.links = links
        self.hosts = hosts
        self.host_ips = host_ips
        self._path_fn = path_fn

    @property
    def n_hosts(self):
        return len(self.hosts)

    @property
    def n_links(self):
        return len(self.links)

    def five_tuple(self, src, dst, sport):
        return (self.host_ips[src], self.host_ips[dst], UDP_PROTO,
                sport, ROCEV2_PORT)

    def path(self, src, dst, sport):
        """Directed link ids the flow ``(src, dst, sport)`` traverses."""
        if src == dst:
            raise ValueError("flow from host %r to itself" % (src,))
        return self._path_fn(src, dst, self.five_tuple(src, dst, sport))

    def goodput_capacities(self, efficiency=EFFICIENCY, factor=1.0):
        """Link capacities in goodput bits/second (for the rate solver)."""
        scale = efficiency * factor
        return {link: rate * scale for link, rate in self.links.items()}

    def __repr__(self):
        return "FlowTopology(%r, %d hosts, %d links)" % (
            self.name, self.n_hosts, self.n_links,
        )


def single_switch_flow(n_hosts=2, rate_bps=None):
    """N hosts under one ToR -- mirrors :func:`repro.topo.single_switch`."""
    rate = rate_bps or gbps(40)
    tor = "T0"
    hosts = ["S%d" % i for i in range(n_hosts)]
    host_ips = [host_ip(0, 0, i) for i in range(n_hosts)]
    links = {}
    for name in hosts:
        links[link_id(name, tor)] = rate
        links[link_id(tor, name)] = rate

    def path_fn(src, dst, five_tuple):
        return (link_id(hosts[src], tor), link_id(tor, hosts[dst]))

    return FlowTopology("single_switch/%d" % n_hosts, links, hosts, host_ips, path_fn)


def two_tier_flow(n_tors=2, hosts_per_tor=4, n_leaves=4, rate_bps=None):
    """ToRs each uplinked to every leaf -- mirrors :func:`repro.topo.two_tier`.

    Routing: same-ToR traffic turns around at the ToR; cross-ToR traffic
    ECMPs over all leaves at the source ToR (default route up) and comes
    straight down at the leaf (direct subnet route).
    """
    rate = rate_bps or gbps(40)
    tors = ["T%d" % t for t in range(n_tors)]
    leaves = ["L%d" % l for l in range(n_leaves)]
    hosts, host_ips, host_tor = [], [], []
    for t in range(n_tors):
        for h in range(hosts_per_tor):
            hosts.append("T%d-S%d" % (t, h))
            host_ips.append(host_ip(0, t, h))
            host_tor.append(t)
    links = {}
    for idx, name in enumerate(hosts):
        tor = tors[host_tor[idx]]
        links[link_id(name, tor)] = rate
        links[link_id(tor, name)] = rate
    for tor in tors:
        for leaf in leaves:
            links[link_id(tor, leaf)] = rate
            links[link_id(leaf, tor)] = rate
    tor_seeds = [_seed(t) for t in tors]

    def path_fn(src, dst, five_tuple):
        t_src, t_dst = host_tor[src], host_tor[dst]
        up = link_id(hosts[src], tors[t_src])
        down = link_id(tors[t_dst], hosts[dst])
        if t_src == t_dst:
            return (up, down)
        leaf = leaves[ecmp_select(five_tuple, n_leaves, tor_seeds[t_src])]
        return (up, link_id(tors[t_src], leaf), link_id(leaf, tors[t_dst]), down)

    return FlowTopology(
        "two_tier/%dx%d" % (n_tors, hosts_per_tor), links, hosts, host_ips, path_fn
    )


def clos_flow(
    n_podsets=2,
    tors_per_podset=2,
    hosts_per_tor=2,
    leaves_per_podset=2,
    n_spines=4,
    rate_bps=None,
):
    """3-tier Clos -- mirrors :func:`repro.topo.three_tier_clos`.

    Wiring: leaf ``l`` of every podset connects to spines
    ``[l*spl, (l+1)*spl)`` where ``spl = n_spines / leaves_per_podset``.
    Routing: ToR ECMPs up over its podset's leaves; a leaf routes its
    own podset's ToR subnets straight down and ECMPs remote traffic over
    its ``spl`` spines; a spine reaches every podset through the one
    leaf it is wired to.
    """
    if n_spines % leaves_per_podset:
        raise ValueError("n_spines must be a multiple of leaves_per_podset")
    spl = n_spines // leaves_per_podset
    rate = rate_bps or gbps(40)
    spines = ["SP%d" % s for s in range(n_spines)]
    tor_name = lambda p, t: "P%dT%d" % (p, t)
    leaf_name = lambda p, l: "P%dL%d" % (p, l)
    hosts, host_ips, host_loc = [], [], []
    links = {}
    for p in range(n_podsets):
        for t in range(tors_per_podset):
            tor = tor_name(p, t)
            for h in range(hosts_per_tor):
                name = "P%dT%d-S%d" % (p, t, h)
                hosts.append(name)
                host_ips.append(host_ip(p, t, h))
                host_loc.append((p, t))
                links[link_id(name, tor)] = rate
                links[link_id(tor, name)] = rate
            for l in range(leaves_per_podset):
                leaf = leaf_name(p, l)
                links[link_id(tor, leaf)] = rate
                links[link_id(leaf, tor)] = rate
        for l in range(leaves_per_podset):
            leaf = leaf_name(p, l)
            for s in range(l * spl, (l + 1) * spl):
                links[link_id(leaf, spines[s])] = rate
                links[link_id(spines[s], leaf)] = rate
    tor_seeds = {
        (p, t): _seed(tor_name(p, t))
        for p in range(n_podsets) for t in range(tors_per_podset)
    }
    leaf_seeds = {
        (p, l): _seed(leaf_name(p, l))
        for p in range(n_podsets) for l in range(leaves_per_podset)
    }

    def path_fn(src, dst, five_tuple):
        p_src, t_src = host_loc[src]
        p_dst, t_dst = host_loc[dst]
        src_tor, dst_tor = tor_name(p_src, t_src), tor_name(p_dst, t_dst)
        up = link_id(hosts[src], src_tor)
        down = link_id(dst_tor, hosts[dst])
        if (p_src, t_src) == (p_dst, t_dst):
            return (up, down)
        # ToR: ECMP over the podset's leaves (default route up).
        l = ecmp_select(five_tuple, leaves_per_podset, tor_seeds[(p_src, t_src)])
        src_leaf = leaf_name(p_src, l)
        if p_src == p_dst:
            # The leaf routes its own podset's ToR subnets directly.
            return (up, link_id(src_tor, src_leaf),
                    link_id(src_leaf, dst_tor), down)
        # Leaf: ECMP over its spine group; the spine descends through the
        # single leaf (same index l) it is wired to in the target podset.
        s = l * spl + ecmp_select(five_tuple, spl, leaf_seeds[(p_src, l)])
        dst_leaf = leaf_name(p_dst, l)
        return (
            up,
            link_id(src_tor, src_leaf),
            link_id(src_leaf, spines[s]),
            link_id(spines[s], dst_leaf),
            link_id(dst_leaf, dst_tor),
            down,
        )

    return FlowTopology(
        "clos/%dx%dx%d" % (n_podsets, tors_per_podset, hosts_per_tor),
        links, hosts, host_ips, path_fn,
    )


# ============================================================================
# End of the verbatim reference.
# ============================================================================

REFERENCE = {
    "single": (single_switch, single_switch_flow),
    "two_tier": (two_tier, two_tier_flow),
    "clos": (three_tier_clos, clos_flow),
}


def fabric_facts(fabric, config):
    """Everything about a built fabric that a fingerprint can see, and
    which configuration object landed on which device (the argument's
    name when it is one the caller passed, its fields when a default)."""

    def which(found):
        for name, passed in config.items():
            if found is passed:
                return name
        return vars(found)

    return {
        "switches": [
            (
                switch.name,
                switch.base_mac,
                switch.ecmp_seed,
                switch.tables.local_subnet,
                switch.tables.drop_lossless_on_incomplete_arp,
                (which(switch.pfc_config), which(switch.buffer_config), which(switch.ecn_config)),
                switch._mark_rng.name,
                [(port.name, port.is_server_facing) for port in switch.ports],
                [
                    (route.prefix, route.prefix_len, route.ports)
                    for route in switch.tables.routes
                ],
            )
            for switch in fabric.switches
        ],
        "hosts": [
            (host.name, host.mac, host.ip, which(host.nic.config), which(host.nic.pfc_config))
            for host in fabric.hosts
        ],
        "links": [(link.name, link.rate_bps, link.delay_ns) for link in fabric.links],
    }


def names(devices):
    return [device.name for device in devices]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=fabric_shapes(max_podsets=3, max_tors=4, max_hosts_per_tor=4, max_leaves=3))
def test_packet_fabric_equals_the_hand_wired_one(shape):
    kind, dims = shape
    config = dict(
        rate_bps=gbps(25),
        seed=3,
        pfc_config=PfcConfig(),
        buffer_config=BufferConfig(),
        ecn_config=EcnConfig(),
        nic_config=NicConfig(),
        forwarding_kwargs={"drop_lossless_on_incomplete_arp": True},
    )
    old = REFERENCE[kind][0](**config, **dims)
    new = FABRIC_BUILDERS[kind][0](**config, **dims)
    assert fabric_facts(new.fabric, config) == fabric_facts(old.fabric, config)
    assert names(new.hosts) == names(old.hosts)
    if kind == "single":
        assert new.tor.name == old.tor.name
    elif kind == "two_tier":
        assert names(new.tors) == names(old.tors)
        assert names(new.leaves) == names(old.leaves)
        assert [names(h) for h in new.hosts_by_tor] == [names(h) for h in old.hosts_by_tor]
    else:
        assert names(new.spines) == names(old.spines)
        assert len(new.podsets) == len(old.podsets)
        for new_podset, old_podset in zip(new.podsets, old.podsets):
            assert sorted(new_podset) == sorted(old_podset)
            assert names(new_podset["tors"]) == names(old_podset["tors"])
            assert names(new_podset["leaves"]) == names(old_podset["leaves"])
            assert [names(h) for h in new_podset["hosts_by_tor"]] == [
                names(h) for h in old_podset["hosts_by_tor"]
            ]


@pytest.mark.parametrize("force_figure4_paths", [True, False])
def test_quad_equals_the_hand_wired_one(force_figure4_paths):
    config = dict(
        force_figure4_paths=force_figure4_paths,
        seed=2,
        pfc_config=PfcConfig(),
        buffer_config=BufferConfig(),
        nic_config=NicConfig(),
        forwarding_kwargs={"drop_lossless_on_incomplete_arp": True},
    )
    old, new = deadlock_quad(**config), new_topo.deadlock_quad(**config)
    assert fabric_facts(new.fabric, config) == fabric_facts(old.fabric, config)
    assert list(new.hosts) == list(old.hosts)
    assert {tag: port.name for tag, port in new.ports.items()} == {
        tag: port.name for tag, port in old.ports.items()
    }
    for attr in ("t0", "t1", "la", "lb"):
        assert getattr(new, attr).name == getattr(old, attr).name


@settings(max_examples=60, deadline=None)
@given(shape=fabric_shapes(max_podsets=4, max_tors=4, max_hosts_per_tor=4, max_leaves=3))
def test_flow_topology_equals_the_hand_mirrored_one(shape):
    kind, dims = shape
    old = REFERENCE[kind][1](rate_bps=gbps(25), **dims)
    new = FABRIC_BUILDERS[kind][1](rate_bps=gbps(25), **dims)
    assert (new.name, new.hosts, new.host_ips) == (old.name, old.hosts, old.host_ips)
    assert new.links == old.links
    for src, dst in itertools.permutations(range(old.n_hosts), 2):
        for sport in (49152, 50001, 65535):
            assert new.path(src, dst, sport) == old.path(src, dst, sport)
            assert new.five_tuple(src, dst, sport) == old.five_tuple(src, dst, sport)

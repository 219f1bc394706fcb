"""Analytic topologies for the flow-level simulator.

A :class:`FlowTopology` is a capacity graph plus a path function:
directed links (identified by ``"A>B"`` strings), each with a wire rate,
and ``path(src, dst, sport)`` resolving the links a five-tuple's packets
would traverse.  Both are derived from the same
:class:`~repro.spec.FabricSpec` the packet builders instantiate --
links from its host and trunk steps, paths by walking its routes with
the switches' own hash (:func:`repro.switch.ecmp.ecmp_select` under
:func:`~repro.switch.ecmp.ecmp_seed`) -- so a flow takes the links its
packets take on the packet fabric of the same shape, but no devices are
instantiated: a 4096-host Clos costs a dict, not a packet simulator.
"""

from repro.packets.ip import IPPROTO_UDP
from repro.packets.rocev2 import ROCEV2_UDP_PORT
from repro.sim.units import gbps
from repro.spec import clos_spec, single_switch_spec, two_tier_spec
from repro.switch.ecmp import ecmp_seed, ecmp_select

#: Goodput payload bytes per wire byte: a 1086-byte frame (preamble +
#: IPG included) carries a 1024-byte MTU payload.  The one definition --
#: the differential harness imports it.
EFFICIENCY = 1024 / 1086.0

_MAX_HOPS = 16


def link_id(a, b):
    """Directed link identifier for the hop ``a -> b``."""
    return a + ">" + b


class FlowTopology:
    """Capacity graph + path resolver for :class:`repro.flowsim.FlowSim`.

    ``spec``
        The :class:`~repro.spec.FabricSpec` this was derived from.
    ``links``
        Mapping directed-link id -> wire rate (bits/second).
    ``hosts``
        List of host names; flows address endpoints by index.
    ``host_ips``
        Parallel list of IPv4 ints (the spec's address plan).
    """

    __slots__ = ("name", "spec", "links", "hosts", "host_ips", "_first_hop", "_tables")

    def __init__(self, spec, rate_bps=None):
        rate = rate_bps or gbps(40)
        self.name = spec.name
        self.spec = spec
        self.links = links = {}
        self.hosts, self.host_ips, self._first_hop = [], [], []
        # switch -> {prefix_len: {prefix: (egress link ids, next switches)}};
        # an attached host is a /32 whose next "switch" is None.
        levels = {name: {} for name in spec.tiers}
        for step in spec.build:
            if step[0] == "host":
                _, name, ip, tor = step
                up, down = link_id(name, tor), link_id(tor, name)
                links[up] = links[down] = rate
                self.hosts.append(name)
                self.host_ips.append(ip)
                self._first_hop.append((up, tor))
                levels[tor].setdefault(32, {})[ip] = ((down,), (None,))
            elif step[0] == "trunk":
                _, lower, upper, _cable_m = step
                links[link_id(lower, upper)] = links[link_id(upper, lower)] = rate
        for name, routes in spec.routes.items():
            for prefix, prefix_len, neighbours in routes:
                # First installed wins, as in the switch's stable route sort.
                levels[name].setdefault(prefix_len, {}).setdefault(
                    prefix,
                    (tuple(link_id(name, hop) for hop in neighbours), tuple(neighbours)),
                )
        # switch -> (ECMP seed, [(mask, {prefix: ...}), ...] longest prefix first)
        self._tables = {
            name: (
                ecmp_seed(name),
                [
                    ((0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF, by_len[prefix_len])
                    for prefix_len in sorted(by_len, reverse=True)
                ],
            )
            for name, by_len in levels.items()
        }

    @property
    def n_hosts(self):
        return len(self.hosts)

    @property
    def n_links(self):
        return len(self.links)

    def five_tuple(self, src, dst, sport):
        return (self.host_ips[src], self.host_ips[dst], IPPROTO_UDP,
                sport, ROCEV2_UDP_PORT)

    def path(self, src, dst, sport):
        """Directed link ids the flow ``(src, dst, sport)`` traverses:
        at every switch the longest matching prefix of the spec's routes,
        then the five-tuple hash over its neighbours."""
        n_hosts = len(self.hosts)
        if not (0 <= src < n_hosts and 0 <= dst < n_hosts):
            raise IndexError(
                "flow %r -> %r: host index outside range(%d)" % (src, dst, n_hosts)
            )
        if src == dst:
            raise ValueError("flow from host %r to itself" % (src,))
        five_tuple = self.five_tuple(src, dst, sport)
        dst_ip = five_tuple[1]
        link, switch = self._first_hop[src]
        path = [link]
        tables = self._tables
        while switch is not None:
            seed, by_mask = tables[switch]
            for mask, entries in by_mask:
                hop = entries.get(dst_ip & mask)
                if hop is not None:
                    break
            else:
                raise ValueError("%s has no route to %s" % (switch, self.hosts[dst]))
            egress, neighbours = hop
            choice = ecmp_select(five_tuple, len(egress), seed) if len(egress) > 1 else 0
            path.append(egress[choice])
            switch = neighbours[choice]
            if len(path) > _MAX_HOPS:
                raise ValueError(
                    "no path from %s to %s within %d hops (routing loop?)"
                    % (self.hosts[src], self.hosts[dst], _MAX_HOPS)
                )
        return tuple(path)

    def goodput_capacities(self, efficiency=EFFICIENCY, factor=1.0):
        """Link capacities in goodput bits/second (for the rate solver)."""
        scale = efficiency * factor
        return {link: rate * scale for link, rate in self.links.items()}

    def __repr__(self):
        return "FlowTopology(%r, %d hosts, %d links)" % (
            self.name, self.n_hosts, self.n_links,
        )


def single_switch_flow(n_hosts=2, rate_bps=None):
    """N hosts under one ToR -- the flow tier of :func:`repro.topo.single_switch`."""
    return FlowTopology(single_switch_spec(n_hosts), rate_bps)


def two_tier_flow(n_tors=2, hosts_per_tor=4, n_leaves=4, rate_bps=None):
    """ToRs each uplinked to every leaf -- the flow tier of
    :func:`repro.topo.two_tier`: same-ToR traffic turns around at the ToR,
    cross-ToR traffic ECMPs over the leaves and comes straight down."""
    return FlowTopology(two_tier_spec(n_tors, hosts_per_tor, n_leaves), rate_bps)


def clos_flow(
    n_podsets=2,
    tors_per_podset=2,
    hosts_per_tor=2,
    leaves_per_podset=2,
    n_spines=4,
    rate_bps=None,
):
    """3-tier Clos -- the flow tier of :func:`repro.topo.three_tier_clos`
    (wiring and routing: :func:`repro.spec.clos_spec`)."""
    return FlowTopology(
        clos_spec(n_podsets, tors_per_podset, hosts_per_tor, leaves_per_podset, n_spines),
        rate_bps,
    )

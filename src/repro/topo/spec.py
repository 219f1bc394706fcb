"""One fabric description: the spec every tier is derived from.

The paper's fabric is one object -- servers under a ToR share a subnet,
routing is up-down, every switch runs the standard five-tuple hash with
its own seed (section 2) -- so it is written down once, here, as plain
data.  Three things are *derived* from a :class:`FabricSpec` and never
wired by hand: the packet fabric (:class:`repro.topo.builders.Topology`),
the flow-level capacity graph (:class:`repro.flowsim.topo.FlowTopology`)
and, through that, the figure 7 model (:mod:`repro.flows.clos_model`).

A spec holds

``build``
    ONE ordered list of steps -- ``("switch", name, local_subnet)``,
    ``("host", name, ip, tor)`` and ``("trunk", lower, upper, cable_m)``.
    The order is behaviour: the packet fabric allocates MACs, numbers
    ports and fills ``fabric.links`` in build order, and every
    determinism fingerprint digests those, so nodes and trunks share one
    list exactly as the fabric is cabled (all nodes first, then all
    trunks, would permute the links).
``routes``
    switch name -> ``[(prefix, prefix_len, [neighbour names]), ...]`` in
    installation order.  A route names the neighbours it ECMPs over;
    each back end resolves a neighbour to its own port or link.
``tiers``
    switch name -> 0 (ToR), 1 (leaf) or 2 (spine), in build order.

What is deliberately not in the spec: the ECMP seed of switch ``name``
is :func:`repro.switch.ecmp.ecmp_seed` in every back end, and buffer,
PFC and ECN configuration stay arguments of the packet builders.

Device names are behaviour too -- they seed the ``ecn/<name>`` RNG
streams and the ECMP hash -- which is why the three Clos entry points
keep their three naming conventions over the one generator.
"""


def tor_subnet(podset, tor):
    """``(prefix, prefix_len)`` of a ToR's server subnet, ``10.p.t.0/24``."""
    if not (0 <= podset < 256 and 0 <= tor < 256):
        raise ValueError(
            "podset %r / ToR %r outside the 10.p.t.0/24 address plan" % (podset, tor)
        )
    return ((10 << 24) | (podset << 16) | (tor << 8), 24)


#: Most hosts one /24 ToR subnet addresses (.0 is the subnet, .255 broadcast).
MAX_HOSTS_PER_TOR = 254


def host_ip(podset, tor, host):
    """The conventional address of a host: ``10.podset.tor.(host+1)``."""
    if not 0 <= host < MAX_HOSTS_PER_TOR:
        raise ValueError(
            "host %r outside the %d addresses of a ToR subnet" % (host, MAX_HOSTS_PER_TOR)
        )
    return tor_subnet(podset, tor)[0] | (host + 1)


DEFAULT_ROUTE = (0, 0)


class FabricSpec:
    """Plain-data fabric description; see the module docstring."""

    __slots__ = ("name", "build", "routes", "tiers")

    def __init__(self, name):
        self.name = name
        self.build = []
        self.routes = {}
        self.tiers = {}

    # -- writing (the generator and the literal quad use these) --------------

    def switch(self, name, tier, local_subnet=None):
        self.build.append(("switch", name, local_subnet))
        self.tiers[name] = tier
        self.routes[name] = []
        return name

    def host(self, name, ip, tor):
        self.build.append(("host", name, ip, tor))

    def trunk(self, lower, upper, cable_m):
        self.build.append(("trunk", lower, upper, cable_m))

    def route(self, switch, subnet, neighbours):
        self.routes[switch].append((subnet[0], subnet[1], list(neighbours)))

    # -- reading -------------------------------------------------------------

    def hosts(self):
        """``[(name, ip, tor), ...]`` in build order."""
        return [step[1:] for step in self.build if step[0] == "host"]

    def trunks(self):
        """``[(lower, upper, cable_m), ...]`` in build order."""
        return [step[1:] for step in self.build if step[0] == "trunk"]


# -- the up-down Clos shape ----------------------------------------------------

#: The three naming conventions over the one generator.  Templates are
#: filled from podset ``p``, ToR ``t``, leaf ``l``, spine ``s``, host ``h``
#: (the spec name from the matching dimensions); ``args`` is what the
#: entry point calls a dimension when it is not the generator's own
#: word, so an error names the argument the caller actually passed.
_SINGLE = dict(
    name="single_switch/%(h)d", tor="T0", host="S%(h)d",
    args={"hosts_per_tor": "n_hosts"},
)
_TWO_TIER = dict(
    name="two_tier/%(t)dx%(h)d", tor="T%(t)d", leaf="L%(l)d", host="T%(t)d-S%(h)d",
    args={"tors_per_podset": "n_tors", "leaves_per_podset": "n_leaves"},
)
_CLOS = dict(
    name="clos/%(p)dx%(t)dx%(h)d", tor="P%(p)dT%(t)d", leaf="P%(p)dL%(l)d",
    spine="SP%(s)d", host="P%(p)dT%(t)d-S%(h)d", args={},
)


def _check_shape(args, n_podsets, tors_per_podset, hosts_per_tor,
                 leaves_per_podset, n_spines):
    """Reject a shape the address plan cannot number or that leaves two
    hosts with no route between them -- once, for every tier."""
    called = lambda dimension: args.get(dimension, dimension)
    for dimension, value, most in (
        ("n_podsets", n_podsets, 256),
        ("tors_per_podset", tors_per_podset, 256),
        ("hosts_per_tor", hosts_per_tor, MAX_HOSTS_PER_TOR),
        ("leaves_per_podset", leaves_per_podset, None),
        ("n_spines", n_spines, None),
    ):
        if value < 0:
            raise ValueError("%s must not be negative, got %r" % (called(dimension), value))
        if most is not None and value > most:
            raise ValueError(
                "%s=%r does not fit the address plan (at most %d)"
                % (called(dimension), value, most)
            )
    # Spines are dealt evenly to a podset's leaves; without a leaf none can be cabled.
    if (n_spines % leaves_per_podset) if leaves_per_podset else n_spines:
        raise ValueError(
            "n_spines must be a multiple of %s" % called("leaves_per_podset")
        )
    populated_tors = tors_per_podset if hosts_per_tor else 0
    if not leaves_per_podset and populated_tors * n_podsets > 1:
        raise ValueError(
            "%s=0 leaves hosts under different ToRs with no route between them"
            % called("leaves_per_podset")
        )
    if not n_spines and populated_tors and n_podsets > 1:
        raise ValueError(
            "n_spines=0 leaves hosts in different podsets with no route between them"
        )


def _updown(style, n_podsets, tors_per_podset, hosts_per_tor,
            leaves_per_podset, n_spines):
    """The up-down Clos: podsets of ToRs under leaves, joined by spines.

    Every ToR uplinks to every leaf of its podset and default-routes up
    over them; a leaf routes each ToR subnet of its podset straight down
    and default-routes up over its ``n_spines / leaves_per_podset``
    spines (the paper's podsets have 4 leaves fanning out to 64 spines,
    16 each); spine ``s`` connects to leaf ``s // spines_per_leaf`` of
    every podset and reaches a podset's subnets through it.  With no
    spines this is the two-tier fabric, with no leaves one switch.
    """
    _check_shape(style["args"], n_podsets, tors_per_podset, hosts_per_tor,
                 leaves_per_podset, n_spines)
    spec = FabricSpec(
        style["name"] % {"p": n_podsets, "t": tors_per_podset, "h": hosts_per_tor}
    )
    spines = [spec.switch(style["spine"] % {"s": s}, 2) for s in range(n_spines)]
    spines_per_leaf = n_spines // leaves_per_podset if leaves_per_podset else 0
    leaves_by_podset = []
    for p in range(n_podsets):
        leaves = [
            spec.switch(style["leaf"] % {"p": p, "l": l}, 1)
            for l in range(leaves_per_podset)
        ]
        leaves_by_podset.append(leaves)
        tors = []
        for t in range(tors_per_podset):
            tor = spec.switch(style["tor"] % {"p": p, "t": t}, 0, tor_subnet(p, t))
            tors.append(tor)
            for h in range(hosts_per_tor):
                spec.host(style["host"] % {"p": p, "t": t, "h": h}, host_ip(p, t, h), tor)
        for t, tor in enumerate(tors):
            for leaf in leaves:
                spec.trunk(tor, leaf, 20)
                spec.route(leaf, tor_subnet(p, t), [tor])
            if leaves:
                spec.route(tor, DEFAULT_ROUTE, leaves)
    # Leaf <-> spine cabling comes after every podset, as the fabric is built.
    for p, leaves in enumerate(leaves_by_podset):
        for l, leaf in enumerate(leaves):
            uplinks = spines[l * spines_per_leaf:(l + 1) * spines_per_leaf]
            for spine in uplinks:
                spec.trunk(leaf, spine, 300)
                for t in range(tors_per_podset):
                    spec.route(spine, tor_subnet(p, t), [leaf])
            if uplinks:
                spec.route(leaf, DEFAULT_ROUTE, uplinks)
    return spec


def clos_spec(n_podsets=2, tors_per_podset=2, hosts_per_tor=2,
              leaves_per_podset=2, n_spines=4):
    """Podsets ``P<p>`` of ToRs and leaves under spines ``SP<s>`` (figures 1, 7)."""
    return _updown(_CLOS, n_podsets, tors_per_podset, hosts_per_tor,
                   leaves_per_podset, n_spines)


def two_tier_spec(n_tors=2, hosts_per_tor=4, n_leaves=4):
    """ToRs ``T<t>`` each uplinked to every leaf ``L<l>`` (figure 8)."""
    return _updown(_TWO_TIER, 1, n_tors, hosts_per_tor, n_leaves, 0)


def single_switch_spec(n_hosts=2):
    """Servers ``S0..S(n-1)`` on the one ToR ``T0``, subnet 10.0.0.0/24."""
    return _updown(_SINGLE, 1, 1, n_hosts, 0, 0)


def deadlock_quad_spec(force_figure4_paths=True):
    """Figure 4 as a literal: ToRs T0, T1 cross-connected by leaves La, Lb;
    S1, S2 (+S6 helper) under T0; S3, S4, S5 under T1.

    With ``force_figure4_paths`` T0 reaches T1's subnet only via La and
    T1 reaches T0's only via Lb, so the cyclic dependency forms
    deterministically instead of depending on an ECMP draw.
    """
    spec = FabricSpec("deadlock_quad")
    subnets = {"T0": tor_subnet(0, 0), "T1": tor_subnet(0, 1)}
    for tor, subnet in subnets.items():
        spec.switch(tor, 0, subnet)
    for leaf in ("La", "Lb"):
        spec.switch(leaf, 1)
    # S7 is the figure's "other sources" of the incast congesting T1's
    # port to S5: a T1-local sender that oversubscribes the S5 egress no
    # matter what the uplinks carry.
    for name, tor, index in (
        ("S1", 0, 0), ("S2", 0, 1), ("S6", 0, 2),
        ("S3", 1, 0), ("S4", 1, 1), ("S5", 1, 2), ("S7", 1, 3),
    ):
        spec.host(name, host_ip(0, tor, index), "T%d" % tor)
    for tor in subnets:
        for leaf in ("La", "Lb"):
            spec.trunk(tor, leaf, 20)
    spec.route("T0", subnets["T1"], ["La"] if force_figure4_paths else ["La", "Lb"])
    spec.route("T1", subnets["T0"], ["Lb"] if force_figure4_paths else ["La", "Lb"])
    # Leaves route each subnet down its direct ToR port.
    for leaf in ("La", "Lb"):
        for tor, subnet in subnets.items():
            spec.route(leaf, subnet, [tor])
    return spec

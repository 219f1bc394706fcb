"""The Fabric: a container wiring hosts, switches and links together.

IP addresses follow the address plan of :mod:`repro.topo.spec`
(``host_ip`` / ``tor_subnet``, importable from here too); MACs are
allocated sequentially under the locally administered prefix.

The fabric knows which side of a link is a server and which is a switch,
so the right port types (server-facing vs routed uplink) are created, and
it finalizes every switch's shared buffer once wiring is complete.
"""

from repro.net.link import Link
from repro.nic.host import AddressDirectory, Host
from repro.obs import HUBS
from repro.sim import SeededRng, Simulator
from repro.sim.units import gbps
from repro.switch.switch import Switch
from repro.topo.spec import host_ip, tor_subnet  # noqa: F401  (perfbench and tests import them here)


class Fabric:
    """Hosts + switches + links + shared simulation services."""

    def __init__(self, sim=None, seed=1, default_rate_bps=None):
        self.sim = sim or Simulator()
        self.rng = SeededRng(seed, "fabric")
        self.directory = AddressDirectory()
        self.default_rate_bps = default_rate_bps or gbps(40)
        self.hosts = []
        self.switches = []
        self.links = []
        self._next_mac = 0x020000000001
        self._finalized = False

    # -- element creation -------------------------------------------------------

    def allocate_mac(self):
        mac = self._next_mac
        self._next_mac += 1
        return mac

    def add_host(self, name, ip, nic_config=None, pfc_config=None):
        host = Host(
            self.sim,
            name,
            ip=ip,
            mac=self.allocate_mac(),
            nic_config=nic_config,
            pfc_config=pfc_config,
            directory=self.directory,
        )
        self.hosts.append(host)
        return host

    def add_switch(self, name, **kwargs):
        kwargs.setdefault("base_mac", self.allocate_mac() << 8)
        switch = Switch(self.sim, name, **kwargs)
        self.switches.append(switch)
        return switch

    # -- wiring -------------------------------------------------------------------

    def connect_host(self, switch, host, rate_bps=None, cable_meters=2, **link_kwargs):
        """Server <-> ToR link (server-facing port on the switch side)."""
        switch_port = switch.add_server_port()
        link = Link(
            self.sim,
            switch_port,
            host.port,
            rate_bps=rate_bps or self.default_rate_bps,
            cable_meters=cable_meters,
            **link_kwargs,
        )
        self.links.append(link)
        return link

    def connect_switches(self, lower, upper, rate_bps=None, cable_meters=20, **link_kwargs):
        """Switch <-> switch link (routed uplink ports on both sides).

        Returns ``(lower_port, upper_port, link)`` so builders can install
        routes pointing at the right port indices.
        """
        lower_port = lower.add_uplink_port()
        upper_port = upper.add_uplink_port()
        link = Link(
            self.sim,
            lower_port,
            upper_port,
            rate_bps=rate_bps or self.default_rate_bps,
            cable_meters=cable_meters,
            **link_kwargs,
        )
        self.links.append(link)
        return lower_port, upper_port, link

    # -- lifecycle ------------------------------------------------------------------

    def finalize(self):
        """Size every switch's shared buffer; idempotent."""
        for switch in self.switches:
            switch.finalize()
        self._finalized = True
        return self

    def boot(self, settle_ns=100_000):
        """Finalize, announce every host (gratuitous ARP) and run the
        simulator briefly so switch tables populate.

        Every armed observability hub (``repro.telemetry.arm``,
        ``repro.tracing.arm``) attaches a session to this fabric here --
        that is how the bench/campaign/validation/experiment CLIs opt
        whole runs into collection without threading flags through
        every runner.  With the hubs disarmed (the default) this is a
        no-op.
        """
        self.finalize()
        for hub in HUBS:
            hub.maybe_attach(self)
        for host in self.hosts:
            host.boot()
        self.sim.run(until=self.sim.now + settle_ns)
        return self

    # -- queries ---------------------------------------------------------------------

    def host_named(self, name):
        for host in self.hosts:
            if host.name == name:
                return host
        raise KeyError(name)

    def switch_named(self, name):
        for switch in self.switches:
            if switch.name == name:
                return switch
        raise KeyError(name)

    def total_pause_frames(self):
        """Fabric-wide pause frames emitted (switches + NICs)."""
        switches = sum(s.pause_frames_sent() for s in self.switches)
        nics = sum(h.nic.stats.pause_generated for h in self.hosts)
        return switches + nics

    def total_drops(self):
        """Fabric-wide data packet drops at switches."""
        return sum(s.counters.total_drops for s in self.switches)

    def __repr__(self):
        return "Fabric(%d hosts, %d switches, %d links)" % (
            len(self.hosts),
            len(self.switches),
            len(self.links),
        )

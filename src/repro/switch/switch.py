"""The shared-buffer switch device.

Pipeline for a data frame arriving on an ingress port -- one function,
:meth:`Switch.handle_packet`, in this order:

1. enforce the port's 802.1Q mode (trunk / access);
2. classify priority (VLAN PCP or IP DSCP per :class:`PfcConfig`) and
   count the frame in the port's rx stats, at its size *as received*;
3. storm watchdog: discard lossless frames from a disabled port;
4. apply the experiment's ingress drop filter, if any (the section 4.1
   livelock experiment drops "any packet with the least significant byte
   of IP ID equals to 0xff" this way);
5. TTL check and decrement; learn the source MAC (server-facing ports);
6. forwarding decision: L3 ECMP route, L2 deliver, flood (incomplete ARP
   entry) or drop; for a route, the ECMP choice from the per-switch memo;
7. rewrite: the ARP-resolved MAC on local delivery, or the 802.1Q tag
   stripped crossing an L3 boundary (section 3) -- so from here on the
   frame is four bytes smaller than step 2 counted;
8. shared-buffer admission against the ingress PG (lossy drop / headroom
   spill per :mod:`repro.switch.buffer`), then the PFC decision: the
   buffer is asked, and the PG's :class:`PauseSignaler` is fetched only
   when the answer is a change (XOFF goes out of the *ingress* port);
9. lossy egress cap, then optional ECN marking against the *egress*
   queue depth (DCQCN CP);
10. enqueue at the egress port(s) with the buffer claim as the queue
    annotation; flooded copies share one claim (refcounted) and are
    flagged so routed ports can drop them at the head of the queue,
    exactly as in the paper's figure 4 narrative.

Dequeue (or head-drop) releases the buffer claim and asks the PFC
decision again; a change there sends XON.
"""

from repro.packets.ip import IPV4_HEADER_BYTES
from repro.packets.packet import Packet, compile_priority_resolver
from repro.packets.pause import N_PRIORITIES
from repro.net.device import Device
from repro.switch.buffer import BufferConfig, SharedBuffer
from repro.switch.ecmp import ecmp_seed as _name_seed
from repro.switch.ecmp import ecmp_select
from repro.switch.ecn import EcnConfig
from repro.switch.forwarding import ForwardingTables
from repro.switch.pfc import PauseSignaler, PfcConfig
from repro.switch.watchdog import PortStormWatchdog, SwitchWatchdogConfig
from repro.obs import TELEMETRY as _TELEMETRY
from repro.obs import TRACE as _TRACE


class _BufferClaim:
    """Shared-buffer charge for one admitted packet, carried as its
    egress queue annotation.  Flood copies share one claim (refcounted),
    and every one of them carries ``flood_copy`` True."""

    __slots__ = ("port_idx", "priority", "nbytes", "refs", "flood_copy")

    def __init__(self, port_idx, priority, nbytes, refs, flood_copy):
        self.port_idx = port_idx
        self.priority = priority
        self.nbytes = nbytes
        self.refs = refs
        self.flood_copy = flood_copy


class SwitchCounters:
    """Aggregate per-switch counters for monitoring (section 5.2)."""

    def __init__(self):
        self.rx_packets = 0
        self.tx_enqueued = 0
        self.flood_events = 0
        self.flood_copies = 0
        self.ecn_marked = 0
        self.drops = {
            "filter": 0,  # experiment-injected drops (livelock setup)
            "ttl": 0,
            "no-route": 0,
            "arp-miss": 0,
            "incomplete-arp-lossless": 0,  # the deadlock fix in action
            "buffer-lossy": 0,
            "buffer-headroom-overflow": 0,  # must stay 0: PFC violation
            "watchdog-lossless": 0,  # storm watchdog discarding
            "pause-ignored": 0,
            "vlan-port-mode": 0,  # trunk port dropping untagged (PXE!)
            "egress-lossy": 0,  # lossy egress queue cap (incast drops)
        }

    @property
    def total_drops(self):
        return sum(self.drops.values())


class Switch(Device):
    """A shared-buffer, PFC-capable, L3 ECMP switch."""

    def __init__(
        self,
        sim,
        name,
        buffer_config=None,
        pfc_config=None,
        ecn_config=None,
        local_subnet=None,
        ecmp_seed=None,
        mark_rng=None,
        base_mac=None,
        forwarding_kwargs=None,
    ):
        super().__init__(sim, name)
        self.buffer_config = buffer_config or BufferConfig()
        self.pfc_config = pfc_config or PfcConfig()
        self.ecn_config = ecn_config or EcnConfig(enabled=False)
        self.tables = ForwardingTables(
            sim, local_subnet=local_subnet, **(forwarding_kwargs or {})
        )
        self.ecmp_seed = _name_seed(name) if ecmp_seed is None else ecmp_seed
        self._mark_rng = mark_rng
        self.base_mac = base_mac if base_mac is not None else (_name_seed(name) & 0xFFFF) << 16
        self.counters = SwitchCounters()
        self.buffer = None  # built by finalize() once port count is known
        self._signalers = []  # [port_idx][priority] -> PauseSignaler or None
        self._watchdogs = {}
        self._lossless_disabled_ports = set()
        self._server_port_idxs = set()
        # Experiment hook: callable(packet) -> True to drop at ingress.
        self.ingress_drop_filter = None

    @property
    def pfc_config(self):
        return self._pfc_config

    @pfc_config.setter
    def pfc_config(self, pfc):
        """Install a config: compile its ``packet -> priority`` function
        and lossless set here, once.  Configs are replaced wholesale
        (deployment steps, fault injection), never mutated in place."""
        self._pfc_config = pfc
        self._classify = compile_priority_resolver(
            pfc.priority_mode,
            dscp_to_priority=pfc.dscp_to_priority,
            default_priority=pfc.default_priority,
        )
        self._lossless_set = pfc.lossless_priorities if pfc.enabled else frozenset()

    # -- construction --------------------------------------------------------

    def add_server_port(self, vlan_port_mode=None):
        """A server-facing (L2 subnet) port.

        ``vlan_port_mode`` is None (no 802.1Q enforcement), ``"access"``
        (untagged only) or ``"trunk"`` (tagged only -- what VLAN-based
        PFC forces, breaking PXE boot per section 3).
        """
        port = self.add_port()
        port.is_server_facing = True
        port.vlan_port_mode = vlan_port_mode
        self._server_port_idxs.add(port.index)
        return port

    def set_server_port_modes(self, vlan_port_mode):
        """Reconfigure the 802.1Q mode of every server-facing port."""
        for idx in self._server_port_idxs:
            self.ports[idx].vlan_port_mode = vlan_port_mode

    def add_uplink_port(self, drop_flood_at_head=True):
        """A routed uplink port.  ``drop_flood_at_head`` reproduces the
        ASIC behaviour of section 4.2: flood copies reaching the head of a
        routed port's queue are dropped because the destination MAC does
        not match."""
        port = self.add_port(drop_flood_at_head=drop_flood_at_head)
        port.is_server_facing = False
        return port

    def finalize(self):
        """Build the shared buffer once all ports exist.  Idempotent."""
        if self.buffer is None:
            self.buffer = SharedBuffer(
                self.buffer_config,
                n_ports=len(self.ports),
                lossless_priorities=self.pfc_config.lossless_priorities,
            )
            # Telemetry attributes buffer-level signals to this switch.
            self.buffer.owner_name = self.name
            self._signalers = [[None] * N_PRIORITIES for _ in self.ports]
        return self

    def enable_storm_watchdog(self, config=None):
        """Arm the section 4.3 switch-side watchdog on server-facing ports."""
        config = config or SwitchWatchdogConfig()
        for idx in self._server_port_idxs:
            port = self.ports[idx]
            if idx not in self._watchdogs:
                self._watchdogs[idx] = PortStormWatchdog(self.sim, self, port, config)
        return self

    def mac_for_port(self, port):
        """The switch's own MAC on ``port`` (pause frame source address)."""
        return self.base_mac + port.index

    def _signaler(self, port_idx, priority):
        """The PG's signaler, built the first time its decision changes."""
        row = self._signalers[port_idx]
        signaler = row[priority]
        if signaler is None:
            signaler = row[priority] = PauseSignaler(
                self.sim, self, self.ports[port_idx], priority
            )
        return signaler

    # -- receive path --------------------------------------------------------

    def handle_packet(self, port, packet):
        """Device entry point for every frame arriving on ``port``.

        Dispatches pause frames to the port's pause state (unless the
        storm watchdog disabled lossless on that port), ARP to the
        forwarding tables, and walks a data frame through the ingress
        pipeline described in the module docstring -- in this one
        function: it runs once per frame per hop, where a helper per
        step would be a Python frame per step."""
        if self.buffer is None:
            self.finalize()
        port_idx = port.index
        disabled = self._lossless_disabled_ports
        if packet.pause is not None:
            if port_idx in disabled:
                # Watchdog tripped: the malfunctioning NIC's pauses are
                # ignored so they cannot propagate into the network.
                self.counters.drops["pause-ignored"] += 1
                return
            port.receive_pause(packet.pause)
            return
        if packet.arp is not None:
            self._handle_arp(port, packet)
            return
        self.counters.rx_packets += 1
        mode = port.vlan_port_mode
        if mode is not None:
            if mode == "trunk" and packet.vlan is None:
                # Trunk ports "can only send packets with VLAN tag" -- an
                # untagged PXE-boot exchange dies right here (section 3).
                self.counters.drops["vlan-port-mode"] += 1
                return
            if mode == "access" and packet.vlan is not None:
                self.counters.drops["vlan-port-mode"] += 1
                return
        priority = self._classify(packet)
        stats = port.stats
        stats.rx_packets[priority] += 1
        stats.rx_bytes[priority] += packet.size_bytes
        lossless = priority in self._lossless_set
        if lossless and port_idx in disabled:
            # Storm watchdog: discard lossless packets *from* the NIC.
            self.counters.drops["watchdog-lossless"] += 1
            return
        if self.ingress_drop_filter is not None and self.ingress_drop_filter(packet):
            self.counters.drops["filter"] += 1
            return
        ip = packet.ip
        if ip is not None:
            if ip.ttl <= 1:
                self.counters.drops["ttl"] += 1
                return
            ip.ttl -= 1
        if port.is_server_facing:
            self.tables.learn_mac(packet.src_mac, port_idx)
        decision = self.tables.decide(ip.dst if ip is not None else 0, lossless)
        if decision.action != decision.FORWARD:
            if decision.action == decision.DROP:
                drops = self.counters.drops
                drops[decision.reason] = drops.get(decision.reason, 0) + 1
            else:
                self._flood(port, packet, priority, lossless)
            return
        ports = decision.ports
        n_choices = len(ports)
        if n_choices > 1:
            choice = ecmp_select(packet.five_tuple, n_choices, self.ecmp_seed)
            egress_idx = ports[choice]
        else:
            egress_idx = ports[0]
        if decision.reason == "l2-hit":
            # Local delivery: rewrite the MAC to the ARP-resolved station.
            mac = self.tables.resolve_local_mac(ip.dst)
            if mac is not None:
                packet.dst_mac = mac
        elif (
            decision.reason == "l3-route"
            and packet.vlan is not None
            and not self._pfc_config.vlan_pcp_preserved_across_l3
        ):
            # Crossing a subnet boundary: the 802.1Q tag (and with it the
            # PCP priority) is not regenerated -- the section 3 failure
            # of VLAN-based PFC on an IP-routed fabric.  Note the packet
            # was already *classified at this hop* before the tag is lost.
            packet.vlan = None
        if lossless and egress_idx in disabled:
            # Storm watchdog: discard lossless packets *to* the NIC.
            self.counters.drops["watchdog-lossless"] += 1
            return
        # Charged as it will be buffered: re-read after the tag strip.
        nbytes = packet.size_bytes
        buffer = self.buffer
        state = buffer.pg_rows[port_idx][priority]
        if not buffer.admit_state(state, nbytes, lossless):
            reason = "buffer-headroom-overflow" if lossless else "buffer-lossy"
            self.counters.drops[reason] += 1
            return
        if lossless and buffer.evaluate_pause_state(state):
            self._signaler(port_idx, priority).evaluate()
        self._enqueue_egress(
            self.ports[egress_idx],
            packet,
            priority,
            _BufferClaim(port_idx, priority, nbytes, 1, False),
        )

    def _handle_arp(self, port, packet):
        """Switch-CPU ARP processing: learn, then flood within the subnet."""
        arp = packet.arp
        self.tables.learn_arp(arp.sender_ip, arp.sender_mac)
        self.tables.learn_mac(arp.sender_mac, port.index)
        # Broadcast/flood the ARP to the other server-facing ports (ARP is
        # lossy: "broadcast and multicast packets should not be put into
        # lossless classes", section 4.2).
        for idx in self._server_port_idxs:
            if idx == port.index:
                continue
            egress = self.ports[idx]
            if egress.connected:
                egress.enqueue(packet, self.pfc_config.default_priority, meta=None)

    def _flood(self, port, packet, priority, lossless):
        """Unknown-unicast flooding "to all its ports" except the ingress
        (section 4.2) -- including routed uplinks, whose copies are later
        dropped at the head of the queue."""
        mac = self.tables.resolve_local_mac(packet.ip.dst) if packet.ip else None
        if mac is not None:
            packet.dst_mac = mac
        targets = [
            p
            for p in self.ports
            if p.index != port.index
            and p.connected
            and not (
                lossless and p.index in self._lossless_disabled_ports
            )
        ]
        if not targets:
            return
        # Admission and the PFC decision, as in handle_packet.
        nbytes = packet.size_bytes
        buffer = self.buffer
        state = buffer.pg_rows[port.index][priority]
        if not buffer.admit_state(state, nbytes, lossless):
            reason = "buffer-headroom-overflow" if lossless else "buffer-lossy"
            self.counters.drops[reason] += 1
            return
        if lossless and buffer.evaluate_pause_state(state):
            self._signaler(port.index, priority).evaluate()
        self.counters.flood_events += 1
        claim = _BufferClaim(port.index, priority, nbytes, len(targets), True)
        for egress in targets:
            copy = packet if egress is targets[-1] else _clone_for_flood(packet)
            self.counters.flood_copies += 1
            self._enqueue_egress(egress, copy, priority, claim)

    def _enqueue_egress(self, egress, packet, priority, claim):
        cap = self.buffer_config.lossy_egress_cap_bytes
        if (
            cap is not None
            and priority not in self._lossless_set
            and egress._queue_bytes[priority] + packet.size_bytes > cap
        ):
            self.counters.drops["egress-lossy"] += 1
            # Release this copy's share of the buffer claim.
            self._on_port_dequeue(packet, claim, True)
            return
        ecn = self.ecn_config
        if (
            ecn.enabled
            and packet.ip is not None
            and packet.ip.ect_capable
            and self._mark_rng is not None
            and ecn.should_mark(egress._queue_bytes[priority], self._mark_rng)
        ):
            packet.ip.mark_ce()
            self.counters.ecn_marked += 1
        self.counters.tx_enqueued += 1
        egress.enqueue(packet, priority, claim)

    def _on_port_dequeue(self, packet, claim, dropped_at_head):
        if claim is None:
            return  # control/ARP enqueues carry no buffer claim
        claim.refs -= 1
        if claim.refs == 0:
            buffer = self.buffer
            state = buffer.pg_rows[claim.port_idx][claim.priority]
            buffer.release_state(state, claim.nbytes)
            # A PG still asserting pause is asked even when a live config
            # push took its priority out of the lossless set, so it sends
            # its XON once drained instead of pausing upstream for good.
            if (
                state.paused or claim.priority in self._lossless_set
            ) and buffer.evaluate_pause_state(state):
                self._signaler(claim.port_idx, claim.priority).evaluate()

    # -- watchdog callbacks ----------------------------------------------------

    def on_watchdog_trip(self, port):
        """Switch watchdog: disable lossless mode on ``port``."""
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_switch_watchdog(self, port)
        if _TRACE.enabled:
            _TRACE.session.on_switch_watchdog(self, port)
        self._lossless_disabled_ports.add(port.index)
        # Stop honouring the pause state the NIC already imposed.
        port.force_resume_all()
        # Stop pausing the NIC ourselves.
        if self.buffer is not None:
            for priority in self.pfc_config.lossless_priorities:
                signaler = self._signalers[port.index][priority]
                if signaler is not None:
                    signaler.stop()

    def on_watchdog_reenable(self, port):
        """Switch watchdog: pause frames gone; restore lossless mode."""
        self._lossless_disabled_ports.discard(port.index)

    def lossless_disabled(self, port):
        """True while the storm watchdog has lossless mode off on ``port``."""
        return port.index in self._lossless_disabled_ports

    # -- monitoring ------------------------------------------------------------

    def iter_buffer_claims(self):
        """Yield each distinct :class:`_BufferClaim` currently holding
        shared-buffer space (flood copies share one claim).  Used by the
        buffer-conservation auditor."""
        seen = set()
        for port in self.ports:
            for _priority, _packet, claim, _enqueued_ns in port.iter_entries():
                if claim is not None and id(claim) not in seen:
                    seen.add(id(claim))
                    yield claim

    def watchdog_trips(self):
        """Total storm-watchdog trips across this switch's ports."""
        return sum(w.trips for w in self._watchdogs.values())

    def pause_frames_sent(self):
        """Total pause frames emitted by this switch (all ports)."""
        return sum(p.stats.pause_tx for p in self.ports)

    def pause_frames_received(self):
        """Total pause frames received by this switch (all ports)."""
        return sum(p.stats.pause_rx for p in self.ports)

    def queued_bytes(self):
        """Bytes currently queued across every egress port."""
        return sum(p.total_queued_bytes for p in self.ports)


def _clone_for_flood(packet):
    """A shallow copy with an independent IP header, so per-copy TTL/ECN
    mutation downstream cannot corrupt sibling copies."""
    from repro.packets.ip import Ipv4Header

    ip = packet.ip
    ip_copy = None
    if ip is not None:
        ip_copy = Ipv4Header(
            src=ip.src,
            dst=ip.dst,
            protocol=ip.protocol,
            dscp=ip.dscp,
            ecn=ip.ecn,
            total_length=ip.total_length,
            identification=ip.identification,
            ttl=ip.ttl,
        )
    return Packet(
        dst_mac=packet.dst_mac,
        src_mac=packet.src_mac,
        vlan=packet.vlan,
        ip=ip_copy,
        udp=packet.udp,
        tcp=packet.tcp,
        bth=packet.bth,
        aeth=packet.aeth,
        payload_bytes=packet.payload_bytes,
        created_ns=packet.created_ns,
        flow=packet.flow,
        context=packet.context,
    )

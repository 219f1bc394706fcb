"""Layer probes: one layer's public functions in an isolated loop.

A probe answers "what does this layer cost with no fabric around it":
the loop is built from the layer's public API only, timed from outside
(no profiler), and is the same in every traced run whatever the
workload or seed.  A probe includes the layers *below* the one it names
(a port transmit clocks a link and schedules engine events); it never
includes the layers above.

Each ``make()`` returns ``(batch, witness)``: ``batch(n)`` prepares the
inputs of ``n`` operations outside the timed region and returns the
thunk to time; ``witness`` is a dict the thunk fills with evidence that
the intended path really ran (``test_perfbench.py`` asserts on it).
"""

import time

from repro.sim import SeededRng, Simulator, Timer
from repro.sim.units import gbps

LOOP_SECONDS = 0.05
LOOPS = 5


def _noop(*_args):
    pass


# -- sim ---------------------------------------------------------------------


def _schedule_dispatch():
    """A self-clocking chain of serialization-scale (50-300 ns) delays:
    every dispatch schedules its successor."""
    witness = {}

    def batch(n):
        sim = Simulator()
        left = [n]

        def tick():
            left[0] -= 1
            if left[0]:
                sim.schedule0(50 + (left[0] * 37) % 251, tick)

        def run():
            sim.schedule0(50, tick)
            sim.run_until_idle()
            witness["dispatched"] = sim.dispatches

        return run

    return batch, witness


def _far_timers():
    """64 concurrent chains whose every delay (150-400 us) lies beyond the
    engine's near window, so each event is filed far and migrates in."""
    witness = {"min_delay_ns": 150_000}

    def batch(n):
        sim = Simulator()
        left = [n]

        def tick(lane):
            left[0] -= 1
            if left[0] > 0:
                sim.schedule1(150_000 + (left[0] * 7919) % 250_000, tick, lane)

        def run():
            for lane in range(64):
                sim.schedule1(150_000 + lane * 3001, tick, lane)
            witness["pending_at_start"] = sim.pending
            sim.run_until_idle()

        return run

    return batch, witness


def _timer_rearm():
    """Timer.start on an armed timer: cancel + schedule, with the engine's
    lazy deletion and compaction picking up the dead entries."""
    witness = {}

    def batch(n):
        sim = Simulator()
        timer = Timer(sim, _noop, name="probe")

        def run():
            start = timer.start
            for i in range(n):
                start(55_000 + (i & 1023))
            witness["armed"] = timer.armed
            witness["pending"] = sim.pending
            timer.cancel()

        return run

    return batch, witness


# -- packets -----------------------------------------------------------------


def _rocev2_packet(i, src_ip, dst_ip, src_mac, dst_mac, sport=50000):
    from repro.packets import (
        ECN_ECT0,
        ROCEV2_UDP_PORT,
        BaseTransportHeader,
        BthOpcode,
        Ipv4Header,
        Packet,
        UdpHeader,
    )

    ip = Ipv4Header(
        src_ip, dst_ip, dscp=3, ecn=ECN_ECT0, total_length=1068, identification=i & 0xFFFF
    )
    udp = UdpHeader(sport, ROCEV2_UDP_PORT, length=1048)
    bth = BaseTransportHeader(BthOpcode.SEND_MIDDLE, dest_qp=7, psn=i & 0xFFFFFF)
    return Packet.rocev2(
        dst_mac, src_mac, ip, udp, bth, payload_bytes=1024, flow=(src_ip, 7)
    )


def _packet_build():
    witness = {}

    def batch(n):
        def run():
            size = 0
            for i in range(n):
                packet = _rocev2_packet(i, 0x0A000001, 0x0A000102, 2, 3)
                size = packet.size_bytes
                packet.five_tuple
            witness["size_bytes"] = size

        return run

    return batch, witness


# -- net ---------------------------------------------------------------------


def _wire_pair():
    """Two stub devices joined by one 40G link; returns (sim, port, link, sink)."""
    from repro.net import Device, Link

    class Sink(Device):
        received = 0

        def handle_packet(self, port, packet):
            self.received += 1

    sim = Simulator()
    near, far = Sink(sim, "near"), Sink(sim, "far")
    port = near.add_port()
    link = Link(sim, port, far.add_port(), gbps(40), cable_meters=2)
    return sim, port, link, far


def _port_enqueue_tx():
    """enqueue -> schedule -> serialize -> dequeue on one port, in bursts
    of 32 frames so the queue and the busy flag are both exercised."""
    witness = {}

    def batch(n):
        sim, port, _link, far = _wire_pair()
        packet = _rocev2_packet(0, 0x0A000001, 0x0A000002, 2, 3)

        def run():
            enqueue = port.enqueue
            done = 0
            while done < n:
                for _ in range(min(32, n - done)):
                    enqueue(packet, 3)
                done += 32
                sim.run_until_idle()
            witness["received"] = far.received
            witness["tx_packets"] = port.stats.tx_packets[3]

        return run

    return batch, witness


def _link_transmit():
    witness = {}

    def batch(n):
        sim, port, link, far = _wire_pair()
        packet = _rocev2_packet(0, 0x0A000001, 0x0A000002, 2, 3)

        def run():
            transmit = link.transmit
            done = 0
            while done < n:
                for _ in range(min(32, n - done)):
                    transmit(port, packet)
                done += 32
                sim.run_until_idle()
            witness["received"] = far.received
            witness["delivered"] = link.delivered

        return run

    return batch, witness


# -- switch ------------------------------------------------------------------


def _buffer_admit_release():
    """Fill one lossless PG past XOFF frame by frame, then drain it past
    XON, evaluating the pause decision after every admit and release the
    way the switch's signaler does."""
    from repro.switch.buffer import BufferConfig, SharedBuffer

    witness = {"xoff": 0, "xon": 0}

    def batch(n):
        buffer = SharedBuffer(BufferConfig(alpha=1.0 / 64), n_ports=8, lossless_priorities=(3, 4))
        state = buffer.pg(0, 3)

        def run():
            admit, release, evaluate = buffer.admit, buffer.release, buffer.evaluate_pause
            done = 0
            while done < n:
                held = 0
                while not state.paused and done + held < n:
                    admit(0, 3, 1086, True)
                    held += 1
                    if evaluate(0, 3) > 0:
                        state.paused = True
                        witness["xoff"] += 1
                for _ in range(held):
                    release(0, 3, 1086)
                    if evaluate(0, 3) < 0:
                        state.paused = False
                        witness["xon"] += 1
                done += held

        return run

    return batch, witness


def _tor_tables(sim):
    """A ToR's tables: 16 learned local stations, four remote ToR subnets
    on single ports and a default route over four uplinks."""
    from repro.switch.forwarding import ForwardingTables
    from repro.topo.fabric import host_ip, tor_subnet

    tables = ForwardingTables(sim, local_subnet=tor_subnet(0, 0))
    for h in range(16):
        tables.learn_arp(host_ip(0, 0, h), 0x020000000100 + h)
        tables.learn_mac(0x020000000100 + h, h)
    for t in range(1, 5):
        prefix, plen = tor_subnet(0, t)
        tables.add_route(prefix, plen, [16 + t % 4])
    tables.add_route(0, 0, [16, 17, 18, 19])
    destinations = [host_ip(0, 0, i % 16) for i in range(32)]
    destinations += [host_ip(i % 2, 1 + i % 6, i % 16) for i in range(32)]
    return tables, destinations


def _forwarding_decide():
    """The lookup a packet pays when the switch's ECMP memo hits: half
    local (ARP + MAC tables), half routed (longest-prefix match)."""
    witness = {}

    def batch(n):
        tables, destinations = _tor_tables(Simulator())

        def run():
            decide = tables.decide
            forwarded = 0
            for i in range(n):
                if decide(destinations[i & 63], True).action == "forward":
                    forwarded += 1
            witness["forwarded"] = forwarded
            witness["n"] = n

        return run

    return batch, witness


def _forwarding_decide_cold():
    """What the first packet of a flow pays: the lookup plus the CRC
    five-tuple hash over the ECMP group, a fresh five-tuple every time."""
    from repro.switch.ecmp import ecmp_select

    witness = {}

    def batch(n):
        tables, destinations = _tor_tables(Simulator())
        tuples = [
            (0x0A000001 + (i >> 14), destinations[32 + (i & 31)], 17, 49152 + (i & 16383), 4791)
            for i in range(n)
        ]
        witness["distinct"] = len(set(tuples))
        witness["n"] = n

        def run():
            decide = tables.decide
            spread = [0, 0, 0, 0]
            for five_tuple in tuples:
                ports = decide(five_tuple[1], True).ports
                spread[ecmp_select(five_tuple, 4, 0x5EED)] += len(ports) > 0
            witness["spread"] = spread

        return run

    return batch, witness


def _switch_handle_packet():
    """Switch.handle_packet on a four-port ToR wired to stub stations:
    classify, learn, decide, admit, PFC evaluate, enqueue, transmit,
    release -- bursts of 16 frames, then the egress ports drain."""
    from repro.net import Device, Link
    from repro.switch import Switch
    from repro.topo.fabric import host_ip, tor_subnet

    class Station(Device):
        received = 0

        def handle_packet(self, port, packet):
            self.received += 1

    witness = {}

    def batch(n):
        sim = Simulator()
        switch = Switch(
            sim, "T0", local_subnet=tor_subnet(0, 0), ecmp_seed=1,
            mark_rng=SeededRng(1, "perfbench/probe"), base_mac=0x02AA00000000,
        )
        stations = []
        for h in range(4):
            station = Station(sim, "S%d" % h)
            Link(sim, switch.add_server_port(), station.add_port(), gbps(40))
            switch.tables.learn_arp(host_ip(0, 0, h), 0x020000000100 + h)
            switch.tables.learn_mac(0x020000000100 + h, h)
            stations.append(station)
        switch.finalize()
        packets = [
            _rocev2_packet(
                i,
                host_ip(0, 0, i & 1),
                host_ip(0, 0, 2 + (i >> 1 & 1)),
                0x020000000100 + (i & 1),
                0x02AA00000000 + (i & 1),
            )
            for i in range(n)
        ]
        ports = switch.ports

        def run():
            handle = switch.handle_packet
            for start in range(0, n, 16):
                for i in range(start, min(start + 16, n)):
                    handle(ports[i & 1], packets[i])
                sim.run_until_idle()
            witness["received"] = sum(s.received for s in stations)
            witness["drops"] = switch.counters.total_drops
            witness["n"] = n

        return run

    return batch, witness


# -- rdma / dcqcn ------------------------------------------------------------


def _qp_pair():
    """Two connected QPs on hosts with no fabric; the QPs are taken off
    their NICs' transmit schedulers so the probe pulls packets itself."""
    from repro.nic import Host
    from repro.rdma import connect_qp_pair

    sim = Simulator()
    host_a = Host(sim, "A", ip=0x0A000001, mac=0x020000000001)
    host_b = Host(sim, "B", ip=0x0A000002, mac=0x020000000002)
    qp_a, qp_b = connect_qp_pair(host_a, host_b, SeededRng(1, "perfbench/probe"))
    host_a.nic.unregister_source(qp_a)
    host_b.nic.unregister_source(qp_b)
    return qp_a, qp_b


def _rdma_segment_ack():
    """Per data packet of one long message: segment + build on the
    requester, accept on the responder, one coalesced ACK per 16."""
    from repro.rdma import post_send

    witness = {}

    def batch(n):
        qp_a, qp_b = _qp_pair()
        done = []

        def run():
            post_send(qp_a, n * 1024, on_complete=lambda wr, t: done.append(wr))
            pull, deliver = qp_a.pull, qp_b.on_network_packet
            for _ in range(n):
                deliver(pull()[0])
                if qp_b.next_ready_ns() == 0:
                    qp_a.on_network_packet(qp_b.pull()[0])
            witness["completed"] = len(done)
            witness["acks"] = qp_b.stats.acks_sent
            witness["data_pkts"] = qp_a.stats.data_packets_sent

        return run

    return batch, witness


def _rdma_post_complete():
    """Per one-packet message: post, segment, accept, ACK, CQE callback."""
    from repro.rdma import post_send

    witness = {}

    def batch(n):
        qp_a, qp_b = _qp_pair()
        done = [0]

        def complete(_wr, _ns):
            done[0] += 1

        def run():
            for _ in range(n):
                post_send(qp_a, 512, on_complete=complete)
                qp_b.on_network_packet(qp_a.pull()[0])
                qp_a.on_network_packet(qp_b.pull()[0])
            witness["completed"] = done[0]
            witness["n"] = n

        return run

    return batch, witness


def _dcqcn_cnp_update():
    """One CNP (rate cut, both timers re-armed) and four byte-counter
    updates; every eighth round the clock moves 60 us so that one
    alpha-timer expiry is in the mix."""
    from repro.dcqcn import ReactionPoint

    witness = {}

    def batch(n):
        sim = Simulator()
        rp = ReactionPoint(sim, gbps(40))

        def run():
            for i in range(n):
                rp.on_cnp()
                for _ in range(4):
                    rp.on_bytes_sent(1086)
                if not i & 7:
                    sim.run(until=sim.now + 60_000)
            witness["rate_decreases"] = rp.rate_decreases
            witness["rate_bps"] = rp.rate_bps

        return run

    return batch, witness


# -- flows / flowsim / topo ----------------------------------------------------


def _maxmin_instance():
    """A 64-host, 8-ToR, 4-leaf two-tier capacity graph with 256 seeded
    flows: the shape of one flowsim recompute."""
    from repro.flows.maxmin import MaxMinSolver

    rng = SeededRng(1, "perfbench/probe/maxmin")
    capacities = {}
    for host in range(64):
        capacities["h%d>t%d" % (host, host // 8)] = 40e9
        capacities["t%d>h%d" % (host // 8, host)] = 40e9
    for tor in range(8):
        for leaf in range(4):
            capacities["t%d>l%d" % (tor, leaf)] = 40e9
            capacities["l%d>t%d" % (leaf, tor)] = 40e9
    paths = []
    for _ in range(512):
        src = rng.randint(0, 63)
        dst = (src + rng.randint(8, 56)) % 64
        leaf = rng.randint(0, 3)
        paths.append(
            (
                "h%d>t%d" % (src, src // 8),
                "t%d>l%d" % (src // 8, leaf),
                "l%d>t%d" % (leaf, dst // 8),
                "t%d>h%d" % (dst // 8, dst),
            )
        )
    solver = MaxMinSolver(capacities)
    for path in paths[:256]:
        solver.add_flow(path, weight=rng.randint(1, 4))
    return solver, paths[256:]


def _maxmin_solve():
    witness = {}

    def batch(n):
        solver, _spare = _maxmin_instance()

        def run():
            rates = None
            for _ in range(n):
                rates = solver.solve()
            witness["flows"] = len(rates)
            witness["min_rate"] = min(rates.values())

        return run

    return batch, witness


def _maxmin_incremental():
    """The solver's index upkeep with no solve: add_flow, set_weight,
    remove_flow on a 256-flow instance."""
    witness = {}

    def batch(n):
        solver, spare = _maxmin_instance()

        def run():
            for i in range(n):
                flow_id = solver.add_flow(spare[i & 255])
                solver.set_weight(flow_id, 3)
                solver.remove_flow(flow_id)
            witness["flows"] = len(solver)

        return run

    return batch, witness


def _flowsim_add_flow():
    """Flow admission on a 128-host Clos: path resolution (two ECMP
    hashes), validation and the arrival push."""
    from repro.flowsim import FlowSim, clos_flow

    witness = {}
    topology = clos_flow(4, 4, 8, 2, 4)

    def batch(n):
        sim = FlowSim.from_topology(topology)

        def run():
            add = sim.add_host_flow
            for i in range(n):
                src = i & 127
                add(src, (src + 64) & 127, 100_000, start_ns=i, sport=49152 + (i >> 7 & 1023))
            witness["n"] = n

        return run

    return batch, witness


def _topo_build():
    from repro.topo import three_tier_clos

    witness = {}

    def batch(n):
        def run():
            for _ in range(n):
                topo = three_tier_clos(2, 2, 2, 2, 2, seed=1)
            witness["hosts"] = len(topo.hosts)
            witness["switches"] = len(topo.fabric.switches)

        return run

    return batch, witness


class Probe:
    __slots__ = ("name", "unit", "per_second", "make")

    def __init__(self, name, unit, make):
        self.name = name
        self.unit = unit
        self.per_second = {"ns": 1e9, "us": 1e6, "ms": 1e3}[unit]
        self.make = make


PROBES = (
    Probe("probe.sim.schedule_dispatch_ns", "ns", _schedule_dispatch),
    Probe("probe.sim.far_timer_ns", "ns", _far_timers),
    Probe("probe.sim.timer_rearm_ns", "ns", _timer_rearm),
    Probe("probe.packets.build_ns", "ns", _packet_build),
    Probe("probe.net.port.enqueue_tx_ns", "ns", _port_enqueue_tx),
    Probe("probe.net.link.transmit_ns", "ns", _link_transmit),
    Probe("probe.switch.buffer.admit_release_ns", "ns", _buffer_admit_release),
    Probe("probe.switch.forwarding.decide_ns", "ns", _forwarding_decide),
    Probe("probe.switch.forwarding.decide_cold_ns", "ns", _forwarding_decide_cold),
    Probe("probe.switch.pipeline.handle_packet_ns", "ns", _switch_handle_packet),
    Probe("probe.rdma.segment_ack_ns", "ns", _rdma_segment_ack),
    Probe("probe.rdma.post_complete_ns", "ns", _rdma_post_complete),
    Probe("probe.dcqcn.cnp_update_ns", "ns", _dcqcn_cnp_update),
    Probe("probe.flows.maxmin_solve_us", "us", _maxmin_solve),
    Probe("probe.flows.maxmin_incremental_us", "us", _maxmin_incremental),
    Probe("probe.flowsim.add_flow_us", "us", _flowsim_add_flow),
    Probe("probe.topo.build_ms", "ms", _topo_build),
)


def _timed(thunk):
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started


def run_probe(probe, steady, loop_seconds=LOOP_SECONDS, loops=LOOPS):
    """Time one probe: size the loop to ``loop_seconds``, run it ``loops``
    times, reduce with ``steady``.  Returns ``(value, witness)`` with the
    value in the probe's unit per operation."""
    batch, witness = probe.make()
    n = 16
    elapsed = _timed(batch(n))
    while elapsed < loop_seconds / 8 and n < 1 << 22:
        n *= 4
        elapsed = _timed(batch(n))
    n = max(1, int(n * loop_seconds / max(elapsed, 1e-9)))
    samples = [_timed(batch(n)) / n for _ in range(loops)]
    return steady(samples) * probe.per_second, witness

"""The NIC's ready-set transmit arbiter against the poll it replaced.

`Nic._pump_tx` used to ask every registered source ``next_ready_ns()``
for every packet it pulled (ISSUE 23: 443,197 probes for 14,344 data
packets on ``rack_rpc``).  It now walks only the *ready set* -- the
sources that may have work, kept current by ``notify_tx_ready(source)``
-- and must pick the same source, leave ``_rr_index`` on the same slot
and arm ``_tx_timer`` at the same instant as the poll would have: that
is what keeps every determinism fingerprint where it was.

`reference_pump_tx` below is the arbiter's *definition*, not a copy of
the tree kept for comparison: round-robin over registration order from
``_rr_index``, the first source whose ready time has come is pulled and
the pointer moves past it, otherwise the timer is armed at the earliest
future ready time.  It stays, like ``ReferenceSimulator``.  One property
of it is easy to miss and is pinned in
`TestPinnedPrograms.test_an_empty_pull_skips_ahead`: the poll reads
``_rr_index`` afresh at every step, so after a ``pull()`` that returned
``(None, 0)`` at step k (a TCP retransmission acked while it waited) it
carries on at step k + 1 *from the moved pointer* -- it steps over
k + 1 sources and ends by probing the first k + 1 a second time.

Two differentials:

* scripted stub sources under Hypothesis -- random ready times and
  pacing gaps, idle <-> active flips (with the notify the contract asks
  for), spurious notifies, empty pulls, sources registered and
  unregistered mid-run, pause and resume frames, ``die`` / ``repair``,
  ``tx_queue_target_packets`` 1-4 -- compared after every step on the
  pull log (with the pointer at each pull), the timer arms, the frames
  on the wire and ``events_fired``;
* a whole run on a four-host rack -- DCQCN QPs into an incast, a READ,
  a TCP pair, go-back-N loss from the ``"ip-id-ff"`` matcher and a host
  that dies and is repaired with work posted meanwhile -- compared on
  the ``(time, link, uid)`` trace of every frame put on a wire.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Device, Link
from repro.nic.nic import Nic, NicConfig, NicWatchdogConfig
from repro.packets import Ipv4Header, Packet, UdpHeader
from repro.packets.pause import MAX_QUANTA, PfcPauseFrame
from repro.packets.rocev2 import ROCEV2_UDP_PORT, BaseTransportHeader, BthOpcode
from repro.sim import Simulator
from repro.sim.timer import Timer
from repro.sim.units import KB, MS, US, gbps
from repro.switch.pfc import PfcConfig


def reference_pump_tx(nic):
    """Poll every source, round-robin from ``_rr_index``; first ready wins."""
    if nic._dead or not nic._sources:
        return
    while nic.port.total_queued_packets < nic.config.tx_queue_target_packets:
        now = nic.sim.now
        earliest_future = None
        pulled = False
        n = len(nic._sources)
        for step in range(n):
            source = nic._sources[(nic._rr_index + step) % n]
            ready = source.next_ready_ns()
            if ready is None:
                continue
            if ready <= now:
                nic._rr_index = (nic._rr_index + step + 1) % n
                packet, priority = source.pull()
                if packet is None:
                    continue
                nic.stats.tx_packets += 1
                nic.port.enqueue(packet, priority)
                pulled = True
                break
            if earliest_future is None or ready < earliest_future:
                earliest_future = ready
        if not pulled:
            if earliest_future is not None:
                nic._tx_timer.start_at(earliest_future)
            return


class PollingNic(Nic):
    _pump_tx = reference_pump_tx


# -- scripted sources ----------------------------------------------------------


class _RecordingTimer(Timer):
    __slots__ = ("arms",)

    def __init__(self, sim, callback, name):
        super().__init__(sim, callback, name=name)
        self.arms = []

    def start_at(self, time_ns):
        self.arms.append((self._sim.now, time_ns))
        super().start_at(time_ns)


class _Station(Device):
    def __init__(self, sim):
        super().__init__(sim, "tor")
        self.log = []

    def handle_packet(self, port, packet):
        self.log.append((self.sim.now, packet.flow))


class _ScriptedSource:
    """A tx source that does what the program tells it and logs every
    pull together with where the NIC's pointer stood."""

    def __init__(self, world, tag, priority):
        self.world = world
        self.tag = tag
        self.priority = priority
        self.remaining = 0
        self.ready_at = 0
        self.gap_ns = 0
        self.hollow = 0  # pulls that will come back empty
        self.sent = 0

    def next_ready_ns(self):
        if self.hollow:
            return 0
        if self.remaining:
            return self.ready_at
        return None

    def pull(self):
        world = self.world
        now = world.sim.now
        if self.hollow:
            self.hollow -= 1
            world.pulls.append((now, self.tag, None, world.nic._rr_index))
            return None, 0
        self.remaining -= 1
        self.ready_at = max(now, self.ready_at) + self.gap_ns
        packet = Packet.rocev2(
            dst_mac=0xDD,
            src_mac=0xAA,
            ip=Ipv4Header(src=1, dst=2, dscp=self.priority),
            udp=UdpHeader(src_port=50000, dst_port=ROCEV2_UDP_PORT),
            bth=BaseTransportHeader(opcode=BthOpcode.SEND_ONLY, dest_qp=1, psn=self.sent),
            payload_bytes=1024,
            flow=(self.tag, self.sent),
        )
        world.pulls.append((now, self.tag, self.sent, world.nic._rr_index))
        self.sent += 1
        return packet, self.priority

    def __repr__(self):
        return "source %s" % self.tag


class _World:
    """One NIC wired to a recording station, driven step by step."""

    def __init__(self, nic_class, target):
        self.sim = Simulator()
        config = NicConfig(
            pfc_config=PfcConfig(lossless_priorities=(3,)),
            tx_queue_target_packets=target,
            watchdog_config=NicWatchdogConfig(enabled=False),
        )
        self.nic = nic_class(self.sim, "nic", mac=0xAA, config=config)
        self.nic._tx_timer = _RecordingTimer(self.sim, self.nic._pump_tx, "nic.tx")
        self.station = _Station(self.sim)
        Link(self.sim, self.nic.port, self.station.add_port(), rate_bps=gbps(40), delay_ns=10)
        self.sources = []  # every source ever made, registered or not
        self.pulls = []

    def step(self, op):
        kind = op[0]
        nic = self.nic
        if kind == "run":
            self.sim.run(until=self.sim.now + op[1])
        elif kind == "register":
            tag = "s%d" % len(self.sources)
            source = _ScriptedSource(self, tag, 3 if len(self.sources) % 2 == 0 else 1)
            self.sources.append(source)
            nic.register_source(source)
        elif kind == "pause":
            frame = PfcPauseFrame({3: op[1]})
            nic.handle_packet(
                nic.port, Packet.pfc_pause(dst_mac=0x0180C2000001, src_mac=0xBB, pause=frame)
            )
        elif kind == "die":
            nic.die()
        elif kind == "repair":
            nic.repair()
        elif self.sources:
            source = self.sources[op[1] % len(self.sources)]
            if kind == "unregister":
                nic.unregister_source(source)
            elif kind == "give":
                _, _, count, delay_ns, gap_ns = op
                if not source.remaining:
                    source.ready_at = self.sim.now + delay_ns
                source.remaining += count
                source.gap_ns = gap_ns
                nic.notify_tx_ready(source)
            elif kind == "hollow":
                source.hollow += op[2]
                nic.notify_tx_ready(source)
            elif kind == "nudge":
                nic.notify_tx_ready(source)

    def state(self):
        nic = self.nic
        return {
            "pulls": self.pulls,
            "arms": self.nic._tx_timer.arms,
            "wire": self.station.log,
            "events_fired": self.sim.events_fired,
            "rr_index": nic._rr_index,
            "queued": nic.port.queue_lengths,
            "tx_packets": nic.stats.tx_packets,
            "deadline": nic._tx_timer.deadline,
        }


def _run_both(target, program):
    """Drive the poll and the ready set through ``program``; they must
    agree after every step.  Returns the (shared) final state."""
    polled = _World(PollingNic, target)
    walked = _World(Nic, target)
    for index, op in enumerate(program):
        polled.step(op)
        walked.step(op)
        assert walked.state() == polled.state(), "diverged at step %d: %r" % (index, op)
        # The ready set's own invariant: nobody with work is outside it.
        assert walked.nic.audit_tx_ready() == []
    return walked.state()


_SOURCE = st.integers(min_value=0, max_value=7)

_RUN = st.tuples(st.just("run"), st.integers(min_value=0, max_value=3000))
_GIVE = st.tuples(
    st.just("give"),
    _SOURCE,
    st.integers(min_value=1, max_value=4),  # packets
    st.sampled_from([0, 0, 150, 700, 2500]),  # ns until the first is ready
    st.sampled_from([0, 0, 100, 450]),  # pacing gap, ns
)
_OPS = st.one_of(
    _RUN,
    _RUN,  # twice each: time passing and work arriving carry the rest
    _GIVE,
    _GIVE,
    st.tuples(st.just("hollow"), _SOURCE, st.integers(min_value=1, max_value=2)),
    st.tuples(st.just("nudge"), _SOURCE),
    st.tuples(st.just("register")),
    st.tuples(st.just("unregister"), _SOURCE),
    st.tuples(st.just("pause"), st.sampled_from([0, 0, 40, MAX_QUANTA])),
    st.tuples(st.just("die")),
    st.tuples(st.just("repair")),
)

_PROGRAMS = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.lists(_OPS, min_size=1, max_size=40),
)


class TestScriptedSources:
    @settings(max_examples=300, deadline=None)
    @given(_PROGRAMS)
    def test_ready_set_equals_poll(self, case):
        target, n_sources, ops = case
        program = [("register",)] * n_sources + ops + [("repair",), ("run", 20000)]
        _run_both(target, program)


class TestPinnedPrograms:
    def test_an_empty_pull_skips_ahead(self):
        # Four sources, pointer on s0.  s0 is ready only later, s1 owes
        # one empty pull and then has a packet, s2 and s3 are ready.  The
        # poll: step 0 s0 (future), step 1 s1 -> empty, pointer to s2;
        # step 2 from there is s0 again, step 3 is s1 -- which now
        # delivers, while s2 and s3 were stepped over.
        program = [("register",)] * 4 + [
            ("die",),  # hold the pump while the stage is set
            ("give", 0, 1, 2500, 0),
            ("hollow", 1, 1),
            ("give", 1, 1, 0, 0),
            ("give", 2, 1, 0, 0),
            ("give", 3, 1, 0, 0),
            ("repair",),
            ("run", 10000),
        ]
        final = _run_both(1, program)
        assert [(tag, seq) for _, tag, seq, _ in final["pulls"]] == [
            ("s1", None),
            ("s1", 0),
            ("s2", 0),
            ("s3", 0),
            ("s0", 0),
        ]
        # The pull that followed the empty one left the pointer where
        # the poll's arithmetic puts it, not one past s1.
        assert final["pulls"][1][3] == 2

    def test_a_source_unregistered_while_ready_and_next(self):
        program = [("register",)] * 3 + [
            ("die",),
            ("give", 0, 2, 0, 0),
            ("give", 1, 2, 0, 0),
            ("give", 2, 2, 0, 0),
            ("unregister", 0),
            ("repair",),
            ("run", 10000),
            ("give", 0, 1, 0, 0),  # notifies from outside: ignored
            ("run", 10000),
        ]
        final = _run_both(2, program)
        assert [tag for _, tag, _, _ in final["pulls"]] == ["s1", "s2", "s1", "s2"]

    def test_idle_sources_cost_no_probe(self):
        # The point of the exercise, as a count: sixteen sources, one
        # with a hundred packets -- the other fifteen are asked once.
        world = _World(Nic, 2)
        probes = []
        for _ in range(16):
            world.step(("register",))
        for source in world.sources:
            original = source.next_ready_ns
            source.next_ready_ns = lambda original=original, tag=source.tag: (
                probes.append(tag),
                original(),
            )[1]
        world.step(("give", 5, 100, 0, 0))
        world.step(("run", 100000))
        assert len(world.station.log) == 100
        assert set(probes) == {"s5"}
        assert len(probes) <= 2 * 100 + 2


# -- whole run -------------------------------------------------------------------


def _rack_run():
    """A four-host rack with a bit of everything; returns what happened."""
    from repro.dcqcn import enable_dcqcn
    from repro.faults import FaultInjector
    from repro.rdma import connect_qp_pair, post_read, post_send, post_write
    from repro.sim.rng import SeededRng
    from repro.switch.ecn import EcnConfig
    from repro.tcp import connect_tcp_pair
    from repro.topo import single_switch

    uid_base = Packet().uid
    topo = single_switch(n_hosts=4, seed=5, ecn_config=EcnConfig()).boot()
    sim = topo.sim
    h0, h1, h2, h3 = topo.hosts
    rng = SeededRng(5, "nic-tx-reference")

    trace = []
    for link in topo.fabric.links:

        def transmit(from_port, packet, link=link, inner=link.transmit):
            trace.append((sim.now, link.name, packet.uid - uid_base))
            return inner(from_port, packet)

        link.transmit = transmit

    qps = {}
    for src, dst in ((h0, h2), (h1, h2), (h3, h2), (h0, h1), (h2, h3)):
        qp, _ = connect_qp_pair(src, dst, rng)
        enable_dcqcn(qp)
        qps[src.name, dst.name] = qp
    wrs = []
    for (src, dst), qp in qps.items():
        wrs.append(post_send(qp, 300 * KB))
        wrs.append(post_write(qp, 3 * KB))
        wrs.append(post_send(qp, 70 * KB))
    wrs.append(post_read(qps[h0.name, h1.name], 40 * KB))
    conn, _ = connect_tcp_pair(h1, h3, rng)
    delivered = []
    conn.send_message(200 * KB, on_delivered=delivered.append)
    conn.send_message(30 * KB, on_delivered=delivered.append)
    # Section 4.1's filter on h0's server link: deterministic 1/256 loss,
    # recovered by go-back-N.
    FaultInjector(topo.fabric).drop_packets((h0.name, topo.tor.name), match="ip-id-ff")
    # h3 dies mid-transfer, is handed more work while down, comes back.
    sim.schedule(40 * US, h3.die)
    sim.schedule(90 * US, lambda: wrs.append(post_send(qps[h3.name, h2.name], 9 * KB)))
    sim.schedule(400 * US, h3.repair)
    sim.run(until=sim.now + 60 * MS)
    engines = [host.rdma for host in topo.hosts]
    return {
        "trace": trace,
        "events_fired": sim.events_fired,
        "completed": [wr.completed_ns for wr in wrs],
        "tcp_delivered": delivered,
        "naks": sum(qp.stats.naks_received for engine in engines for qp in engine.qps),
        "retransmitted": sum(
            qp.stats.retransmitted_packets for engine in engines for qp in engine.qps
        ),
        "cnps": sum(qp.stats.cnps_received for engine in engines for qp in engine.qps),
        "tcp_retransmits": conn.stats.retransmits,
    }


class TestWholeRun:
    def test_rack_run_is_the_same_under_the_poll(self, monkeypatch):
        walked = _rack_run()
        monkeypatch.setattr(Nic, "_pump_tx", reference_pump_tx)
        polled = _rack_run()
        assert len(walked["trace"]) > 2000
        assert walked["trace"] == polled["trace"]
        assert walked == polled
        # The run did exercise what it claims to.
        assert all(done is not None for done in walked["completed"])
        assert len(walked["tcp_delivered"]) == 2
        assert walked["naks"] > 0 and walked["retransmitted"] > 0
        assert walked["cnps"] > 0

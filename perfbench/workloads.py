"""The four perfbench workloads.

Each workload is a fixed job -- so many messages, requests, flows or
events, run to completion -- built through ``repro``'s public API.  (A
fixed simulated span would let the seed change the amount of work by
10-20%, and the benchmark's end-to-end numbers must be comparable from
seed to seed.)  The driver (:mod:`measure`) calls the phases one by one
so it can time them separately:

``build(seed, tiny)``   construct the fabric / engine   -> ``setup.build_s``
``boot(ctx)``           ARP boot + settle               -> ``setup.boot_s``
``wire(ctx)``           QPs, generators, flow admission -> ``setup.wire_s``
``slices(ctx)``         the timed region, as a generator that yields after
                        each fixed slice of simulated time until the job is
                        done; the slice boundaries repeat exactly per seed,
                        which lets the driver filter host noise slice by slice
``observe(ctx)``        fingerprint, exact counts, invariant and regime checks

The seed varies QP source ports (hence ECMP paths and where PFC bites),
message and flow sizes, arrival times and timer delays.  Switch ECMP
seeds are pinned to ``crc32(name)`` the way ``repro.bench`` pins them, so
a fingerprint is a pure function of (code, workload, seed).

Sizes are chosen so one timed region takes a little over one host second
on the dev container: the builder's contract gives one invocation well
under a minute, and the benchmark never goes below five timed repeats.
``tiny=True`` shrinks every workload to a fraction of a second for
``--selftest`` and ``test_perfbench.py``; tiny runs keep every guard.
"""

import hashlib
import zlib

from repro.sim import SeededRng, Simulator
from repro.sim.timer import Timer
from repro.sim.units import KB, MS, US

#: Exact counts every workload reports (0 where the layer does no work),
#: with their units.
COUNT_UNITS = {
    "sim.events": "count",
    "sim.dispatches": "count",
    "sim.dispatches_per_unit": "ratio",
    "sim.elided_frac": "ratio",
    "net.link.pkt_hops": "count",
    "net.link.lost": "count",
    "switch.buffer.pause_tx": "count",
    "switch.buffer.peak_shared_bytes": "B",
    "switch.buffer.lossless_drops": "count",
    "switch.buffer.lossy_drops": "count",
    "switch.pipeline.ecn_marks": "count",
    "rdma.msgs_completed": "count",
    "rdma.data_pkts": "count",
    "rdma.retx_pkts": "count",
    "rdma.acks": "count",
    "rdma.timeouts": "count",
    "dcqcn.cnps": "count",
    "dcqcn.rate_decreases": "count",
    "tcp.retransmits": "count",
    "tcp.bytes_delivered": "B",
    "flowsim.events": "count",
    "flowsim.events_per_flow": "ratio",
    "flowsim.flows_completed": "count",
    "flows.recomputes": "count",
}


class Outcome:
    """What one repeat simulated: units of work, a determinism
    fingerprint, the exact per-layer counts and any broken invariant or
    regime guard (``problems`` empty means the repeat is correct)."""

    __slots__ = ("units", "fingerprint", "counts", "problems")

    def __init__(self, units, fingerprint_tuple, counts, problems):
        self.units = units
        self.fingerprint = hashlib.sha256(
            repr(fingerprint_tuple).encode()
        ).hexdigest()[:16]
        self.counts = dict.fromkeys(COUNT_UNITS, 0)
        self.counts.update(counts)
        self.problems = problems


def _pin_ecmp_seeds(topo):
    for switch in topo.fabric.switches:
        switch.ecmp_seed = zlib.crc32(switch.name.encode())
    return topo


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _fabric_counts(topo, units, observer_events=0):
    """Exact counts of the packet layers, read from public stats."""
    fabric = topo.fabric
    sim = topo.sim
    events = sim.events_fired - observer_events
    drops = [switch.counters.drops for switch in fabric.switches]
    qps = [qp for host in fabric.hosts if hasattr(host, "rdma") for qp in host.rdma.qps]
    conns = [c for host in fabric.hosts if hasattr(host, "tcp") for c in host.tcp.connections]
    return {
        "sim.events": events,
        "sim.dispatches": sim.dispatches - observer_events,
        "sim.dispatches_per_unit": _ratio(sim.dispatches - observer_events, units),
        "sim.elided_frac": _ratio(sim.elided_events, events),
        "net.link.pkt_hops": sum(link.delivered for link in fabric.links),
        "net.link.lost": sum(link.lost for link in fabric.links),
        "switch.buffer.pause_tx": sum(s.pause_frames_sent() for s in fabric.switches),
        "switch.buffer.peak_shared_bytes": max(
            s.buffer.peak_shared_in_use for s in fabric.switches
        ),
        "switch.buffer.lossless_drops": sum(d["buffer-headroom-overflow"] for d in drops),
        "switch.buffer.lossy_drops": sum(d["buffer-lossy"] + d["egress-lossy"] for d in drops),
        "switch.pipeline.ecn_marks": sum(s.counters.ecn_marked for s in fabric.switches),
        "rdma.msgs_completed": sum(qp.stats.messages_completed for qp in qps),
        "rdma.data_pkts": sum(qp.stats.data_packets_sent for qp in qps),
        "rdma.retx_pkts": sum(qp.stats.retransmitted_packets for qp in qps),
        "rdma.acks": sum(qp.stats.acks_sent for qp in qps),
        "rdma.timeouts": sum(qp.stats.timeouts for qp in qps),
        "dcqcn.cnps": sum(qp.stats.cnps_sent for qp in qps),
        "dcqcn.rate_decreases": sum(qp.rp.rate_decreases for qp in qps if qp.rp is not None),
        "tcp.retransmits": sum(c.stats.retransmits for c in conns),
        "tcp.bytes_delivered": sum(c.stats.bytes_delivered for c in conns),
    }


def _fabric_fingerprint(topo, completed, observer_events=0):
    """The ``repro.bench`` recipe: events, per-sender completed bytes,
    drops, per-switch and per-link counters."""
    fabric = topo.fabric
    return (
        topo.sim.events_fired - observer_events,
        tuple(completed),
        fabric.total_drops(),
        tuple(
            (
                s.counters.rx_packets,
                s.counters.tx_enqueued,
                s.counters.total_drops,
                s.counters.ecn_marked,
                s.pause_frames_sent(),
                s.pause_frames_received(),
            )
            for s in fabric.switches
        ),
        tuple((link.delivered, link.lost) for link in fabric.links),
    )


class _Ctx:
    """Per-repeat state handed from phase to phase."""

    def __init__(self, seed):
        self.seed = seed
        #: Engine events that belong to an observer (auditor ticks), not
        #: to the workload; subtracted before fingerprinting.
        self.observer_events = 0


def _sim_slices(sim, slice_ns, done, limit_ns):
    """Advance ``sim`` one slice of simulated time per step until
    ``done()``; raises if the job has not finished by ``limit_ns``."""
    start = sim.now
    until = start
    while not done():
        if until - start >= limit_ns:
            raise RuntimeError("job not finished after %d ns simulated" % limit_ns)
        until += slice_ns
        sim.run(until=until)
        yield


def _audit_fabric(ctx):
    """Arm the default invariant auditors (record mode) on the fabric;
    returns the function that, after the run, reports their violations."""
    from repro.faults import install_default_auditors

    registry = install_default_auditors(ctx.topo.fabric, mode="record").start()

    def finish():
        # Each audit tick is one engine event that is not the workload's.
        ctx.observer_events = registry.ticks
        return ["auditor: %r" % v for v in registry.violations[:5]]

    return finish


def _audit_nothing(ctx):
    return lambda: []


class StratifiedSizes:
    """A size sampler with a fixed composition: the ``n`` mid-quantiles
    of ``cdf``, handed out in a seed-shuffled order (then cycling).  Every
    seed offers the same bytes in the same number of messages; only the
    order changes.  Duck-types ``repro.workloads.SizeCDF`` for the
    generators (``sample(rng)``, ``mean()``)."""

    def __init__(self, cdf, n, rng):
        self.sizes = [max(1, cdf.quantile((i + 0.5) / n)) for i in range(n)]
        rng.shuffle(self.sizes)
        self._next = 0

    def sample(self, rng):
        size = self.sizes[self._next % len(self.sizes)]
        self._next += 1
        return size

    def mean(self):
        return sum(self.sizes) / float(len(self.sizes))


class ClosBulk:
    """32 closed-loop cross-podset senders on a 32-host three-tier Clos,
    each delivering two pipelined 128 KB messages, no DCQCN: six hops per
    packet, ECMP collisions and live PFC keep the fabric layers busy.

    The switches run the dynamic threshold at alpha = 1/64 (the value of
    the paper's section 6.2 incident): with the default 1/16 a job this
    short ends before any ingress PG reaches XOFF, and the point of the
    workload is the PFC path."""

    name = "clos_bulk"
    unit = "pkt-hops"
    modules = ("repro.topo", "repro.experiments.common")

    MESSAGES = 2

    def build(self, seed, tiny=False):
        from repro.switch.buffer import BufferConfig
        from repro.topo import three_tier_clos

        ctx = _Ctx(seed)
        shape = (2, 2, 2, 2, 2) if tiny else (2, 4, 4, 4, 4)
        # The tiny job is eight senders of 128 KB; it needs a threshold
        # scaled down with it to reach XOFF at all.
        alpha = 1.0 / 1024 if tiny else 1.0 / 64
        ctx.topo = _pin_ecmp_seeds(
            three_tier_clos(*shape, seed=seed, buffer_config=BufferConfig(alpha=alpha))
        )
        ctx.message_bytes = 64 * KB if tiny else 128 * KB
        return ctx

    def boot(self, ctx):
        ctx.topo.boot()

    def wire(self, ctx):
        from repro.experiments.common import saturate_pairs

        hosts = ctx.topo.hosts
        half = len(hosts) // 2
        pairs = [(hosts[i], hosts[half + i]) for i in range(half)]
        pairs += [(hosts[half + i], hosts[i]) for i in range(half)]
        rng = SeededRng(ctx.seed, "perfbench/clos_bulk")
        # Construct unstarted so the job can be bounded before it begins.
        ctx.senders = saturate_pairs(
            ctx.topo.sim, pairs, ctx.message_bytes, rng, start_filter=lambda i, pair: False
        )
        for sender in ctx.senders:
            sender.max_messages = self.MESSAGES
            sender.start()

    def finished(self, ctx):
        return all(s.completed_messages == self.MESSAGES for s in ctx.senders)

    def slices(self, ctx):
        return _sim_slices(ctx.topo.sim, 2 * US, lambda: self.finished(ctx), 20 * MS)

    audit = staticmethod(_audit_fabric)

    def observe(self, ctx):
        topo = ctx.topo
        units = sum(link.delivered for link in topo.fabric.links)
        counts = _fabric_counts(topo, units, ctx.observer_events)
        sent = [s.channel.qp.stats.data_packets_sent for s in ctx.senders]
        problems = []
        if topo.fabric.total_drops():
            problems.append("drops on a lossless fabric: %d" % topo.fabric.total_drops())
        if not self.finished(ctx):
            problems.append("a sender did not deliver its messages")
        if not counts["switch.buffer.pause_tx"]:
            problems.append("regime: no pause frames (PFC idle)")
        fingerprint = _fabric_fingerprint(
            topo, [s.completed_bytes for s in ctx.senders] + sent, ctx.observer_events
        )
        return Outcome(units, fingerprint, counts, problems)


class RackRpc:
    """Eight hosts under one ToR, 56 all-to-all DCQCN QPs.  Every host
    issues a fixed number of open-loop (Poisson, 60% NIC load) requests
    whose sizes are the mid-quantiles of WEB_CDF in a seed-shuffled
    order; three closed-loop TCP senders push four 64 KB messages each
    into host 0 through a capped lossy egress queue.  The job ends when
    every request has completed (TCP is cross traffic, bounded so that a
    long request tail does not change the amount of work).  Two hops per
    packet, per-message work, timers, ECN marking and lossy drops instead
    of XOFF/XON."""

    name = "rack_rpc"
    unit = "pkt-hops"
    modules = ("repro.topo", "repro.rdma", "repro.dcqcn", "repro.tcp", "repro.workloads")

    LOAD = 0.6

    def build(self, seed, tiny=False):
        from repro.switch.buffer import BufferConfig
        from repro.switch.ecn import EcnConfig
        from repro.topo import single_switch

        ctx = _Ctx(seed)
        ctx.topo = _pin_ecmp_seeds(
            single_switch(
                n_hosts=8,
                seed=seed,
                ecn_config=EcnConfig(),
                buffer_config=BufferConfig(lossy_egress_cap_bytes=64 * KB),
            )
        )
        ctx.requests = 8 if tiny else 32
        return ctx

    def boot(self, ctx):
        ctx.topo.boot()

    def wire(self, ctx):
        from repro.dcqcn import enable_dcqcn
        from repro.rdma import connect_qp_pair
        from repro.tcp import TcpConfig, connect_tcp_pair
        from repro.workloads import (
            WEB_CDF,
            ClosedLoopSender,
            PoissonRequests,
            RdmaChannel,
            TcpChannel,
        )

        sim = ctx.topo.sim
        hosts = ctx.topo.hosts
        rng = SeededRng(ctx.seed, "perfbench/rack_rpc")
        rate_bps = hosts[0].port.link.rate_bps
        ctx.generators = []
        for src in hosts:
            channels = []
            for dst in hosts:
                if dst is src:
                    continue
                qp, _ = connect_qp_pair(src, dst, rng)
                enable_dcqcn(qp)
                channels.append(RdmaChannel(qp))
            host_rng = rng.child(src.name)
            sizes = StratifiedSizes(WEB_CDF, ctx.requests, host_rng)
            requests_per_s = self.LOAD * rate_bps / (8.0 * sizes.mean())
            ctx.generators.append(
                PoissonRequests(
                    sim, channels, sizes, requests_per_s, host_rng, max_requests=ctx.requests
                ).start()
            )
        # Datacenter-tuned retransmission timers: with the 5 ms default a
        # single tail drop parks a sender for longer than the whole job.
        tcp = TcpConfig(min_rto_ns=200 * US, initial_rto_ns=1 * MS, max_rto_ns=10 * MS)
        ctx.tcp_senders = []
        for src in hosts[1:4]:
            conn, _ = connect_tcp_pair(src, hosts[0], rng, config_a=tcp, config_b=tcp)
            ctx.tcp_senders.append(
                ClosedLoopSender(TcpChannel(conn), 64 * KB, max_messages=4).start()
            )

    def requests_done(self, ctx):
        return all(len(g.latencies_ns) == ctx.requests for g in ctx.generators)

    def tcp_done(self, ctx):
        return all(s.completed_messages == s.max_messages for s in ctx.tcp_senders)

    def slices(self, ctx):
        def done():
            return self.requests_done(ctx) and self.tcp_done(ctx)

        return _sim_slices(ctx.topo.sim, 5 * US, done, 200 * MS)

    audit = staticmethod(_audit_fabric)

    def observe(self, ctx):
        topo = ctx.topo
        units = sum(link.delivered for link in topo.fabric.links)
        counts = _fabric_counts(topo, units, ctx.observer_events)
        problems = []
        if counts["switch.buffer.lossless_drops"]:
            problems.append("lossless drops: %d" % counts["switch.buffer.lossless_drops"])
        if not self.requests_done(ctx):
            problems.append("a request generator did not finish")
        if not self.tcp_done(ctx):
            problems.append("a TCP sender did not finish")
        for key, label in (
            ("switch.pipeline.ecn_marks", "no ECN marks"),
            ("dcqcn.cnps", "no CNPs"),
            ("switch.buffer.lossy_drops", "no lossy drops"),
        ):
            if not counts[key]:
                problems.append("regime: " + label)
        # A QP that DCQCN throttled to a crawl can outlast its RTO and
        # resend one packet per timeout (about one seed in ten sees a
        # handful); anything beyond that is loss, which this fabric has not.
        if counts["rdma.retx_pkts"] * 100 > counts["rdma.data_pkts"]:
            problems.append("regime: RDMA retransmits: %d" % counts["rdma.retx_pkts"])
        completed = [sum(g.latencies_ns) for g in ctx.generators]
        completed += [s.completed_bytes for s in ctx.tcp_senders]
        fingerprint = _fabric_fingerprint(topo, completed, ctx.observer_events)
        return Outcome(units, fingerprint, counts, problems)


class FlowsimDc:
    """The 4096-host flow-level Clos ROADMAP names as an end-to-end cost:
    every host sends three flows to its partner in the opposite half of
    the fabric (the pairing and per-pair source port of
    ``repro.experiments.flowsim_scale.build_scale_workload``), arrivals
    uniform over 40 ms, rates re-solved on 2 ms boundaries, run to
    completion.  The 12288 sizes are the mid-quantiles of STORAGE_CDF in
    a seed-shuffled order, so every seed moves the same bytes -- drawn
    independently, the heavy tail made the work differ by 10% from seed to
    seed.  Only ``flows`` and ``flowsim`` work."""

    name = "flowsim_dc"
    unit = "flows"
    modules = ("repro.flowsim", "repro.workloads")

    FLOWS_PER_PAIR = 3
    WINDOW_NS = 40 * MS

    def build(self, seed, tiny=False):
        from repro.flowsim import FlowSim, clos_flow

        ctx = _Ctx(seed)
        shape = (4, 4, 8, 2, 4) if tiny else (8, 16, 32, 4, 8)
        ctx.n_podsets = shape[0]
        ctx.topology = clos_flow(*shape)
        ctx.sim = FlowSim.from_topology(ctx.topology, rate_update_interval_ns=2 * MS)
        ctx.check_capacity = False
        ctx.worst_utilization = 0.0
        return ctx

    def boot(self, ctx):
        pass

    def wire(self, ctx):
        from repro.workloads import STORAGE_CDF

        rng = SeededRng(ctx.seed, "perfbench/flowsim_dc")
        n_hosts = ctx.topology.n_hosts
        per_podset = n_hosts // ctx.n_podsets
        ctx.n_flows = n_hosts * self.FLOWS_PER_PAIR
        sizes = StratifiedSizes(STORAGE_CDF, ctx.n_flows, rng)
        add_host_flow = ctx.sim.add_host_flow
        for src in range(n_hosts):
            podset, slot = divmod(src, per_podset)
            dst = ((podset + ctx.n_podsets // 2) % ctx.n_podsets) * per_podset + slot
            sport = 49152 + zlib.crc32(b"%d>%d" % (src, dst)) % 16384
            for _ in range(self.FLOWS_PER_PAIR):
                add_host_flow(
                    src, dst, sizes.sample(rng),
                    start_ns=rng.randint(0, self.WINDOW_NS - 1), sport=sport,
                )

    def slices(self, ctx):
        sim = ctx.sim
        until = 0
        while True:
            until += 8 * MS
            ctx.result = sim.run(until_ns=until)
            if ctx.check_capacity:
                ctx.worst_utilization = max(
                    [ctx.worst_utilization] + list(sim.link_utilization().values())
                )
            yield
            if ctx.result.n_completed == ctx.n_flows:
                return
            if until > 4000 * MS:
                raise RuntimeError("flows still running after %d ns simulated" % until)

    def audit(self, ctx):
        """Flowsim has no packet auditors; the audited repeat instead
        checks, at every slice boundary, that no link carries more than
        its capacity (``observe`` reports it)."""
        ctx.check_capacity = True
        return lambda: []

    def observe(self, ctx):
        run = ctx.result
        units = run.n_completed
        problems = []
        if run.n_active or run.n_completed != ctx.n_flows:
            problems.append(
                "flows left incomplete: %d of %d done" % (run.n_completed, ctx.n_flows)
            )
        if ctx.worst_utilization > 1.0 + 1e-9:
            problems.append("link above capacity: %.6f" % ctx.worst_utilization)
        counts = {
            "flowsim.events": run.n_events,
            "flowsim.events_per_flow": _ratio(run.n_events, units),
            "flowsim.flows_completed": run.n_completed,
            "flows.recomputes": run.n_recomputes,
        }
        # The last slice's horizon is not part of the outcome.
        return Outcome(units, run.fingerprint()[:7] + (run.completion_crc,), counts, problems)


class EngineTimers:
    """``repro.sim`` alone: eight self-clocking lanes of events whose
    delays are what the packet workloads hand the engine --
    serialization-scale (50-300 ns) pooled wake-ups, propagation-scale
    (10-1500 ns) deliveries, same-instant bursts, RTO-scale Timers
    re-armed long before they fire, and DCQCN-scale periodic Timers that
    do fire from the overflow heap.  The delay mix has a fixed
    composition; the seed permutes it and draws the delays, so every seed
    dispatches exactly ``expected_events``."""

    name = "engine_timers"
    unit = "events"
    modules = ("repro.sim",)

    LANES = 8
    TABLE = 8192
    REARM_TIMERS = 32
    PERIODIC_TIMERS = 64
    PERIODIC_FIRES = 150
    # Per 64 table slots: 30 serialization, 22 propagation, 6 bursts
    # (sizes 2, 2, 3, 3, 4, 4) and 6 timer re-arms.
    MIX = ("s",) * 30 + ("p",) * 22 + (2, 2, 3, 3, 4, 4) + ("t",) * 6

    def build(self, seed, tiny=False):
        ctx = _Ctx(seed)
        ctx.sim = Simulator()
        # Whole table cycles, so every seed schedules the same bursts.
        ctx.ticks = self.TABLE * (2 if tiny else 52)
        return ctx

    def boot(self, ctx):
        pass

    def wire(self, ctx):
        sim = ctx.sim
        rng = SeededRng(ctx.seed, "perfbench/engine_timers")
        kinds = list(self.MIX) * (self.TABLE // len(self.MIX))
        rng.shuffle(kinds)
        table = []
        for kind in kinds:
            if kind == "s":
                table.append((0, rng.randint(50, 300), 0))
            elif kind == "p":
                table.append((1, rng.randint(10, 1500), 0))
            elif kind == "t":
                table.append((2, rng.randint(50, 300), rng.randint(55 * US, 300 * US)))
            else:
                table.append((3, rng.randint(50, 300), kind))

        total = ctx.ticks
        size = self.TABLE
        state = [0, 0, 0]  # ticks scheduled, ticks fired, timer re-arms
        rearm = [Timer(sim, _never, name="rto%d" % i) for i in range(self.REARM_TIMERS)]
        n_rearm = len(rearm)
        schedule0 = sim.schedule0
        schedule1 = sim.schedule1
        call_soon = sim.call_soon

        def tick(_arg=None):
            fired = state[1]
            state[1] = fired + 1
            kind, delay, extra = table[fired % size]
            if kind == 2:
                # Round-robin: each timer is re-armed every ~340 ticks
                # (~16 us simulated), far inside its 55 us minimum delay.
                rearm[state[2] % n_rearm].start(extra)
                state[2] += 1
            elif kind == 3:
                for _ in range(extra):
                    call_soon(_leaf)
            if state[0] < total:
                state[0] += 1
                if kind == 1:
                    schedule1(delay, tick, fired)
                else:
                    schedule0(delay, tick)
            elif fired + 1 == total:
                for timer in rearm:
                    timer.cancel()

        ctx.periodic = [
            _PeriodicTimer(sim, rng.randint(55 * US, 300 * US), self.PERIODIC_FIRES)
            for _ in range(self.PERIODIC_TIMERS)
        ]
        for timer in rearm:
            timer.start(rng.randint(55 * US, 300 * US))
        for _ in range(self.LANES):
            state[0] += 1
            sim.schedule(rng.randint(0, 300), tick)

    def expected_events(self, ctx):
        """Ticks, the burst leaves they schedule (whole table cycles, so
        the shuffle does not matter) and the periodic timers' fires."""
        leaves_per_mix = sum(kind for kind in self.MIX if isinstance(kind, int))
        leaves = ctx.ticks // len(self.MIX) * leaves_per_mix
        return ctx.ticks + leaves + self.PERIODIC_TIMERS * self.PERIODIC_FIRES

    def slices(self, ctx):
        sim = ctx.sim
        return _sim_slices(sim, 200 * US, lambda: not sim.pending, 2000 * MS)

    audit = staticmethod(_audit_nothing)

    def observe(self, ctx):
        sim = ctx.sim
        units = sim.dispatches
        expected = self.expected_events(ctx)
        problems = []
        if units != expected or sim.events_fired != expected:
            problems.append("dispatched %d events, expected %d" % (units, expected))
        if sim.pending:
            problems.append("%d events left pending" % sim.pending)
        counts = {
            "sim.events": sim.events_fired,
            "sim.dispatches": sim.dispatches,
            "sim.dispatches_per_unit": _ratio(sim.dispatches, units),
            "sim.elided_frac": _ratio(sim.elided_events, sim.events_fired),
        }
        last_fire = max(t.last_fire_ns for t in ctx.periodic)
        fired = tuple(t.fired for t in ctx.periodic)
        return Outcome(units, (sim.events_fired, last_fire, fired), counts, problems)


def _never():
    raise AssertionError("a re-armed RTO-scale timer fired")


def _leaf():
    pass


class _PeriodicTimer:
    """A DCQCN-style clock: fires every ``period_ns``, ``fires`` times."""

    __slots__ = ("sim", "timer", "period_ns", "remaining", "fired", "last_fire_ns")

    def __init__(self, sim, period_ns, fires):
        self.sim = sim
        self.timer = Timer(sim, self._on_fire, name="periodic")
        self.period_ns = period_ns
        self.remaining = fires
        self.fired = 0
        self.last_fire_ns = 0
        self.timer.start(period_ns)

    def _on_fire(self):
        self.fired += 1
        self.last_fire_ns = self.sim.now
        self.remaining -= 1
        if self.remaining:
            self.timer.start(self.period_ns)


WORKLOADS = {w.name: w for w in (ClosBulk(), RackRpc(), FlowsimDc(), EngineTimers())}

"""Shared Hypothesis strategies and traffic drivers for the test suite.

One home for the generators that several suites were growing ad hoc:

* :func:`sim_programs` / :func:`apply_sim_program` -- random scheduler
  programs (schedule / schedule1 / schedule0 / at / chain / cancel /
  timer start / start_at / extend_to / cancel / run / step / cut) used
  by the engine ordering suite and anything else that differentials the
  event engine.
* :func:`buffer_ops` -- admit/release op streams for shared-buffer
  conservation properties.
* :func:`maxmin_problems` -- (links, paths) instances for the max-min
  allocator.
* :func:`maxmin_programs` -- (links, ops) mutation programs for the
  incremental solver (add / remove / set_weight / re-rate).
* :func:`switch_walk_programs` -- (config, ops) programs over one
  switch wired to stub stations (frames, pause frames, live config
  changes, run horizons) for the per-hop walk's reference twin.
* :func:`two_tier_dims` -- small leaf/ToR fabric dimensions that boot
  fast enough for property tests.
* :func:`fabric_shapes` -- ``(kind, dims)`` over the single-switch,
  two-tier and Clos shapes; :data:`FABRIC_BUILDERS` maps a kind to its
  packet and flow entry points.
* :func:`fault_plans` -- random :class:`~repro.faults.FaultPlan`s
  (flap / drop / corrupt / reorder) over a fabric's links.
* :func:`drive_incast` -- the canonical closed-loop incast driver
  (hosts[1..n] saturating hosts[0]) shared by the faults and property
  suites.
* :func:`validation_scenarios` -- the differential-validation scenario
  generator re-exported as a strategy (seed-mapped, so any failing
  example replays as ``python -m repro validate --seeds 1 --start
  <seed>``).

Strategies take bounds as arguments so suites can tighten or widen them
without forking the generator.
"""

from functools import partial

from hypothesis import strategies as st

from repro.flowsim import EFFICIENCY, clos_flow, single_switch_flow, two_tier_flow
from repro.rdma import QpConfig, connect_qp_pair
from repro.sim.timer import Timer
from repro.sim.units import KB
from repro.topo import single_switch, three_tier_clos, two_tier
from repro.workloads import ClosedLoopSender, RdmaChannel

# --- event-engine programs ---------------------------------------------------

# Scale of generated delays, in nanoseconds.  A literal, not derived
# from the engine: 131 us sits between serialization-scale delays
# (hundreds of ns) and RTO-scale timers (hundreds of us), so programs
# drawing up to a few multiples of it keep mixing both in one heap.
WINDOW_NS = 131_072

#: Size of the pool of timers a program's timer ops pick from.
PROGRAM_TIMERS = 3


def sim_program_ops():
    """A single scheduler op: applied identically to the engine and the
    heapq reference by :func:`apply_sim_program`."""
    return st.one_of(
        # schedule(delay): short and long delays interleaved.
        st.tuples(st.just("sched"), st.integers(0, 3 * WINDOW_NS)),
        # schedule1 / schedule0(delay): the pooled fast path every
        # packet, link delivery and timer takes.
        st.tuples(st.just("sched1"), st.integers(0, 3 * WINDOW_NS)),
        st.tuples(st.just("sched0"), st.integers(0, 3 * WINDOW_NS)),
        # at(now + offset)
        st.tuples(st.just("at"), st.integers(0, 2 * WINDOW_NS)),
        # schedule a callback that, when fired, schedules another
        # recorded event `chain_delay` later -- chain_delay 0 lands at
        # the instant being dispatched.
        st.tuples(
            st.just("chain"),
            st.integers(0, WINDOW_NS),
            st.integers(0, 4000),
        ),
        # cancel the (idx % len)-th previously returned handle, pending,
        # fired or already cancelled
        st.tuples(st.just("cancel"), st.integers(0, 10**6)),
        # a Timer from a small pool: start(delay), start_at(now + offset),
        # extend_to(now + offset), cancel().  Short times are drawn often,
        # so deadlines tie and a re-arm's fresh seq shows in the order.
        st.tuples(st.just("tstart"), st.integers(0, PROGRAM_TIMERS - 1),
                  st.integers(0, 16) | st.integers(0, 3 * WINDOW_NS)),
        st.tuples(st.sampled_from(["tstart_at", "textend"]),
                  st.integers(0, PROGRAM_TIMERS - 1),
                  st.integers(0, 16) | st.integers(0, 2 * WINDOW_NS)),
        st.tuples(st.just("tcancel"), st.integers(0, PROGRAM_TIMERS - 1)),
        st.tuples(st.just("run"), st.integers(0, WINDOW_NS)),
        st.tuples(st.just("step"), st.just(0)),
        # run(until=now + offset, max_events=n): a bounded run that the
        # safety valve may cut short of its horizon.
        st.tuples(st.just("cut"), st.integers(0, WINDOW_NS), st.integers(0, 4)),
    )


def sim_programs(min_size=1, max_size=50):
    """A whole program: a list of :func:`sim_program_ops`."""
    return st.lists(sim_program_ops(), min_size=min_size, max_size=max_size)


def apply_sim_program(sim, ops, timer=Timer):
    """Run `ops` against `sim`; return the fired-event trace.  ``timer``
    is the timer class the timer ops drive (a reference engine passes
    its own)."""
    trace = []
    handles = []
    tag = 0
    # The heapq reference has no pooled path: plain schedule() there.
    schedule1 = getattr(sim, "schedule1", sim.schedule)
    schedule0 = getattr(sim, "schedule0", sim.schedule)

    def timer_fired(index):
        trace.append((sim.now, "timer", index))

    timers = [timer(sim, partial(timer_fired, i)) for i in range(PROGRAM_TIMERS)]

    def make_chain(chain_delay, chain_tag):
        def fire():
            trace.append((sim.now, "chain", chain_tag))
            sim.schedule(chain_delay, trace.append, (sim.now, "link", chain_tag))

        return fire

    for op in ops:
        kind = op[0]
        if kind == "sched":
            handles.append(sim.schedule(op[1], trace.append, (sim.now, "s", tag)))
            tag += 1
        elif kind == "sched1":
            handles.append(schedule1(op[1], trace.append, (sim.now, kind, tag)))
            tag += 1
        elif kind == "sched0":
            handles.append(schedule0(op[1], partial(trace.append, (sim.now, kind, tag))))
            tag += 1
        elif kind == "at":
            handles.append(sim.at(sim.now + op[1], trace.append, (sim.now, "a", tag)))
            tag += 1
        elif kind == "chain":
            handles.append(sim.schedule(op[1], make_chain(op[2], tag)))
            tag += 1
        elif kind == "cancel":
            if handles:
                # schedule1/schedule0 hand out bare entries: the engine
                # cancels those; every other handle cancels itself.
                handle = handles[op[1] % len(handles)]
                if hasattr(handle, "cancel"):
                    handle.cancel()
                else:
                    sim.cancel(handle)
        elif kind in ("tstart", "tstart_at", "textend", "tcancel"):
            target = timers[op[1]]
            if kind == "tstart":
                target.start(op[2])
            elif kind == "tstart_at":
                target.start_at(sim.now + op[2])
            elif kind == "textend":
                target.extend_to(sim.now + op[2])
            else:
                target.cancel()
            trace.append((kind, op[1], target.armed, target.deadline))
        elif kind == "run":
            sim.run(until=sim.now + op[1])
            trace.append(("ran", sim.now, sim.events_fired))
        elif kind == "step":
            sim.step()
            trace.append(("stepped", sim.now, sim.events_fired))
        elif kind == "cut":
            sim.run(until=sim.now + op[1], max_events=op[2])
            trace.append(("cut", sim.now, sim.events_fired))
    sim.run_until_idle()
    return trace


# --- shared-buffer op streams ------------------------------------------------


def buffer_ops(
    n_ports=4,
    priorities=(0, 3),
    min_bytes=64,
    max_bytes=9000,
    min_size=1,
    max_size=200,
):
    """(port, priority, nbytes) admit streams for conservation checks.

    The default priority menu mixes lossy (0) and lossless (3) traffic
    classes, matching the deployment's two-class split.
    """
    return st.lists(
        st.tuples(
            st.integers(0, n_ports - 1),
            st.sampled_from(list(priorities)),
            st.integers(min_bytes, max_bytes),
        ),
        min_size=min_size,
        max_size=max_size,
    )


# --- max-min allocation problems ---------------------------------------------


@st.composite
def maxmin_problems(draw, max_links=6, max_flows=20, max_capacity=100):
    """(links, paths): positive integer capacities, every path a
    non-empty duplicate-free link list."""
    n_links = draw(st.integers(1, max_links))
    links = {i: draw(st.integers(1, max_capacity)) for i in range(n_links)}
    n_flows = draw(st.integers(1, max_flows))
    paths = [
        draw(
            st.lists(
                st.integers(0, n_links - 1),
                min_size=1,
                max_size=n_links,
                unique=True,
            )
        )
        for _ in range(n_flows)
    ]
    return links, paths


@st.composite
def maxmin_programs(draw, max_links=6, max_ops=30, max_capacity=100, max_weight=4):
    """(links, ops): a solver life of ``add`` / ``remove`` / ``weight`` /
    ``rerate`` steps over a fixed link set.

    ``uniform`` programs give every link one capacity and every flow
    weight 1, so fair shares tie all the time and only the heap's
    ``(version, link)`` order decides which link freezes next -- the
    instances where a reordered water-fill would show.  Paths may be
    empty (rate 0.0).  ``remove`` and ``weight`` carry a token the
    caller reduces modulo its live flow count.
    """
    n_links = draw(st.integers(1, max_links))
    uniform = draw(st.booleans())
    capacities = st.just(draw(st.integers(1, max_capacity))) if uniform else (
        st.integers(1, max_capacity)
    )
    weights = st.just(1) if uniform else st.integers(1, max_weight)
    links = {i: draw(capacities) for i in range(n_links)}
    paths = st.lists(st.integers(0, n_links - 1), max_size=n_links, unique=True)
    token = st.integers(0, 10**6)
    ops = draw(
        st.lists(
            st.one_of(
                # Listed twice: programs should grow more often than shrink.
                st.tuples(st.just("add"), paths, weights),
                st.tuples(st.just("add"), paths, weights),
                st.tuples(st.just("remove"), token),
                st.tuples(st.just("weight"), token, weights),
                st.tuples(st.just("rerate"), st.integers(0, n_links - 1), capacities),
            ),
            min_size=1,
            max_size=max_ops,
        )
    )
    return links, ops


@st.composite
def flow_programs(draw, max_links=4, max_paths=3, max_flows=10):
    """(links, flows): a whole simulated life for the flow-level engine.

    ``links`` maps string ids to goodput capacities shaped like the ones
    ``FlowSim.from_topology`` hands over (whole Gb/s scaled by the wire
    efficiency, so finish times do not sit exactly on a nanosecond).
    ``flows`` is a list of ``(path, size_bytes, start_ns, fixed_rate)``:
    paths come from a small pool, so path groups gain several members;
    arrivals come from a handful of instants, so flows arrive together
    and, sizes being small against the gaps, groups empty and refill.
    ``fixed_rate`` is ``None`` for a responsive flow; the fixed rates
    together stay under a quarter of the smallest link, which keeps the
    PFC model in its no-overload regime (fixed flows run at their rate
    and simply take it off the links they cross).
    """
    n_links = draw(st.integers(1, max_links))
    names = ["l%d" % i for i in range(n_links)]
    links = {name: draw(st.integers(1, 100)) * 1e9 * EFFICIENCY for name in names}
    pool = draw(
        st.lists(
            st.lists(st.sampled_from(names), min_size=1, max_size=n_links, unique=True),
            min_size=1,
            max_size=max_paths,
        )
    )
    n_flows = draw(st.integers(1, max_flows))
    fixed_unit = min(links.values()) / (16 * n_flows)
    fixed_rates = st.integers(1, 4).map(lambda k: k * fixed_unit)
    flows = [
        (
            tuple(draw(st.sampled_from(pool))),
            draw(st.integers(1, 200_000)),
            draw(st.sampled_from([0, 1_000, 40_000, 3_000_000, 50_000_000])),
            draw(st.one_of(st.none(), st.none(), fixed_rates)),
        )
        for _ in range(n_flows)
    ]
    return links, flows


# --- topologies and fault plans ----------------------------------------------


def two_tier_dims(max_tors=2, max_hosts_per_tor=3, max_leaves=2):
    """Leaf/ToR dimensions small enough to boot inside a property test."""
    return st.fixed_dictionaries(
        {
            "n_tors": st.integers(1, max_tors),
            "hosts_per_tor": st.integers(1, max_hosts_per_tor),
            "n_leaves": st.integers(1, max_leaves),
        }
    )


#: Shape kind (the validation lab's names) -> (packet builder, flow
#: builder); both take the ``dims`` :func:`fabric_shapes` draws.
FABRIC_BUILDERS = {
    "single": (single_switch, single_switch_flow),
    "two_tier": (two_tier, two_tier_flow),
    "clos": (three_tier_clos, clos_flow),
}


@st.composite
def fabric_shapes(draw, max_podsets=3, max_tors=3, max_hosts_per_tor=3, max_leaves=2):
    """``(kind, dims)``: a connected fabric of one of the three generated
    shapes, small enough to boot inside a property test."""
    kind = draw(st.sampled_from(sorted(FABRIC_BUILDERS)))
    if kind == "single":
        return kind, {"n_hosts": draw(st.integers(1, 2 * max_hosts_per_tor))}
    if kind == "two_tier":
        return kind, draw(two_tier_dims(max_tors, max_hosts_per_tor, max_leaves + 1))
    leaves = draw(st.integers(1, max_leaves))
    return kind, {
        "n_podsets": draw(st.integers(1, max_podsets)),
        "tors_per_podset": draw(st.integers(1, max_tors - 1)),
        "hosts_per_tor": draw(st.integers(1, max_hosts_per_tor - 1)),
        "leaves_per_podset": leaves,
        "n_spines": leaves * draw(st.integers(1, 2)),
    }


@st.composite
def fault_plans(draw, n_links, seed, max_faults=4):
    """A random declarative FaultPlan over link indices [0, n_links).

    Mixes flaps, probabilistic drops/corruption and reordering with the
    same parameter envelopes the faults lane uses; conservation
    invariants must hold under any plan this draws (liveness invariants
    are allowed to trip -- that is what some of these plans provoke).
    """
    from repro.faults import FaultPlan

    plan = FaultPlan("random", seed=seed)
    for i in range(draw(st.integers(1, max_faults))):
        link = draw(st.integers(0, n_links - 1))
        kind = draw(st.sampled_from(["flap", "drop", "corrupt", "reorder"]))
        if kind == "flap":
            plan.flap_link(
                link,
                at_ns=draw(st.integers(150_000, 2_000_000)),
                down_ns=draw(st.integers(10_000, 400_000)),
            )
        elif kind == "drop":
            plan.drop(
                link,
                probability=draw(st.floats(0.001, 0.05)),
                match="data",
            )
        elif kind == "corrupt":
            plan.corrupt(
                link,
                probability=draw(st.floats(0.001, 0.05)),
                match="data",
            )
        else:
            plan.reorder(
                link,
                delay_ns=draw(st.integers(500, 20_000)),
                probability=draw(st.floats(0.01, 0.2)),
            )
    return plan


# --- traffic drivers ---------------------------------------------------------


def drive_incast(topo, n_senders, rng, message_bytes=256 * KB, config=None):
    """Closed-loop senders from hosts[1..n_senders] into hosts[0].

    The canonical congestion driver: enough to exercise PFC and shared
    buffers on any booted topology.  Caps ``n_senders`` at the available
    host count; a one-host fabric gets no traffic.
    """
    hosts = topo.fabric.hosts
    victim = hosts[0]
    for src in hosts[1 : 1 + n_senders]:
        config_a = config or QpConfig()
        config_b = config or QpConfig()
        qp, _ = connect_qp_pair(src, victim, rng, config_a=config_a, config_b=config_b)
        ClosedLoopSender(RdmaChannel(qp), message_bytes).start()


# --- validation scenarios ----------------------------------------------------


def validation_scenarios(max_seed=10**6):
    """Randomized-fabric validation scenarios (seed-mapped: shrinking
    shrinks the seed, and any example replays verbatim in the
    ``python -m repro validate``)."""
    from repro.validation import scenario_strategy

    return scenario_strategy(max_seed=max_seed)


# --- switch-walk programs ----------------------------------------------------

#: Where a generated frame is headed, by the forwarding outcome it
#: provokes on the switch under test.
SWITCH_WALK_DESTINATIONS = (
    "local",  # ARP + MAC known: l2-hit, MAC rewrite
    "routed1",  # /24 over one uplink
    "routedN",  # /16 over every uplink: ECMP pick
    "noroute",  # no prefix (the default route, when the world has one)
    "arpmiss",  # local subnet, never ARP-learned: drop
    "incomplete",  # ARP known, MAC unknown: flood, or drop when lossless
)


@st.composite
def switch_walk_programs(draw, min_rounds=2, max_rounds=12):
    """``(config, ops)``: one four-to-eight-port switch wired to stub
    stations and a program of frames, pause frames, live config changes
    and interleaved ``run`` horizons, for differential tests of the
    per-hop walk (``tests/test_switch_walk_reference.py`` interprets
    both halves).

    The buffer is a few frames deep and egress links are slow, so XOFF,
    headroom spill, headroom overflow, lossy drops and the egress cap
    all fire inside a few dozen frames.  Priorities 3 and 4 start out
    lossless; 0 and 1 are lossy.
    """
    n_ports = draw(st.integers(4, 8))
    n_server = draw(st.integers(2, n_ports - 2))
    port = st.integers(0, n_ports - 1)
    priority = st.sampled_from([0, 1, 3, 3, 4])
    config = {
        "n_ports": n_ports,
        "n_server": n_server,
        "vlan_mode": draw(st.booleans()),
        "pcp_preserved": draw(st.booleans()),
        "server_port_mode": draw(st.sampled_from([None] * 6 + ["access", "trunk"])),
        "dwrr": draw(st.booleans()),
        "alpha": draw(st.sampled_from([None, 1.0 / 64, 1.0 / 16, 0.5, 2.0])),
        "shared_bytes": draw(st.sampled_from([4_000, 12_000, 60_000])),
        "guaranteed_bytes": draw(st.sampled_from([0, 1_200])),
        "lossy_egress_cap": draw(st.sampled_from([None, None, 2_500, 6_000])),
        "ecn": draw(st.booleans()),
        "drop_on_incomplete": draw(st.booleans()),
        "drop_flood_at_head": draw(st.booleans()),
        "default_route": draw(st.booleans()),
        "honour_pause": draw(st.booleans()),
        "pause_quanta": draw(st.sampled_from([40, 400, 0xFFFF])),
        "rates_gbps": [draw(st.sampled_from([1, 1, 10, 40])) for _ in range(n_ports)],
        "delays_ns": [draw(st.sampled_from([10, 500, 1500])) for _ in range(n_ports)],
    }
    frame_shape = (
        st.sampled_from(SWITCH_WALK_DESTINATIONS + ("local", "routed1", "routedN")),
        st.integers(0, 7),  # destination selector within the kind
        priority,
        st.sampled_from([0, 200, 1024, 1024]),  # payload bytes
        st.sampled_from([1, 2, 4, 8, 16, 32]),  # burst length
        # 802.1Q-tagged: mostly, where the tag carries the priority.
        st.sampled_from([True, True, True, False]) if config["vlan_mode"] else st.booleans(),
        st.sampled_from([64] * 7 + [1]),  # TTL
        st.booleans(),  # ECN-capable
        st.sampled_from([0, 0, 0, 0xFF, 0x1FF]),  # IP ID (the section 4.1 filter keys on it)
        st.integers(49152, 49159),  # UDP source port: ECMP entropy
    )
    # One station sends a burst; or every station sends it at once (the
    # incast that fills one egress queue from many ingress PGs).
    frames = st.tuples(st.just("frames"), port, *frame_shape)
    incast = st.tuples(st.just("incast"), *frame_shape)
    run = st.one_of(
        st.tuples(st.just("run"), st.sampled_from([0, 1, 300, 4_000, 40_000, 400_000])),
        st.tuples(st.just("run"), st.integers(0, 100_000)),
    )
    rare = st.one_of(
        st.tuples(st.just("cap"), st.sampled_from([None, 2_500, 6_000])),
        st.tuples(st.just("watchdog"), port, st.booleans()),
        st.tuples(st.just("expire_mac"), st.integers(0, n_server - 1)),
        st.tuples(st.just("filter"), st.booleans()),
        st.tuples(st.just("port_mode"), st.sampled_from([None, None, "access", "trunk"])),
    )
    disturbance = st.one_of(
        st.none(),
        # A station pauses (or, with zero quanta, resumes) the switch's egress.
        st.tuples(st.just("pause"), port, priority, st.sampled_from([0, 0, 30, 3_000, 0xFFFF])),
        # pfc_config replaced wholesale, the way deployment steps and
        # fault injection do it (variants in the interpreter).
        st.tuples(st.just("pfc"), st.integers(0, 7)),
        # buffer.config drifted under a live buffer (section 6.2).
        st.tuples(st.just("alpha"), st.sampled_from([None, 1.0 / 64, 1.0 / 16, 0.5, 2.0])),
        rare,
    )
    # A program is a list of rounds -- traffic, something changing under
    # it, more traffic, a run horizon -- so every example carries load;
    # a flat list of ops mostly draws config changes over an idle switch.
    rounds = draw(
        st.lists(
            st.tuples(
                st.one_of(frames, incast),
                disturbance,
                st.one_of(st.none(), frames, incast),
                disturbance,
                run,
            ),
            min_size=min_rounds,
            max_size=max_rounds,
        )
    )
    return config, [op for round_ in rounds for op in round_ if op is not None]

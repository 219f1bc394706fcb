"""Property-based cross-checks of the flow-level simulator.

The load-bearing property: in exact mode, after any event batch, the
engine's steady-state rates ARE the max-min fair allocation of the
active flow set -- checked here against the from-scratch reference
allocator over randomized link/path instances and randomized fabrics.
Plus determinism (identical seeded builds give identical integer
fingerprints) and conservation (no link ever carries more than its
capacity).

The whole engine -- path groups, service thresholds, the two event
heaps, versions -- has a semantic twin here as well:
:func:`fluid_reference` is a per-flow fluid model with none of those,
built on ``max_min_allocation`` alone, and exact mode must complete the
same flows at the same nanosecond.

Run alone with ``pytest -m flowsim``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.maxmin import max_min_allocation
from repro.flowsim import EFFICIENCY, FlowSim, two_tier_flow
from repro.sim.rng import SeededRng
from repro.sim.units import MS, gbps

from tests.strategies import flow_programs, maxmin_problems, two_tier_dims

pytestmark = pytest.mark.flowsim

_PERMANENT = 10 ** 15


def scale_problem(problem):
    """maxmin_problems capacities are O(100) unitless; lift them to
    plausible bps so the engine's bytes/ns arithmetic stays in its
    realistic range."""
    links, paths = problem
    return {link: cap * 1e9 for link, cap in links.items()}, paths


@given(problem=maxmin_problems())
@settings(max_examples=60, deadline=None)
def test_exact_mode_steady_state_is_maxmin(problem):
    links, paths = scale_problem(problem)
    sim = FlowSim(links, rate_update_interval_ns=0)
    ids = [
        sim.add_flow(path, _PERMANENT) if path else None for path in paths
    ]
    routed = [(fid, path) for fid, path in zip(ids, paths) if path]
    if not routed:
        return
    sim.run(until_ns=1)
    reference = max_min_allocation(links, [path for _fid, path in routed])
    rates = sim.current_rates()
    for (fid, _path), expected in zip(routed, reference):
        assert rates[fid] == pytest.approx(expected, rel=1e-9, abs=1e-12)


@given(problem=maxmin_problems())
@settings(max_examples=40, deadline=None)
def test_no_link_oversubscribed(problem):
    links, paths = scale_problem(problem)
    sim = FlowSim(links, rate_update_interval_ns=0)
    for path in paths:
        if path:
            sim.add_flow(path, _PERMANENT)
    sim.run(until_ns=1)
    for utilization in sim.link_utilization().values():
        assert utilization <= 1.0 + 1e-9


@given(
    dims=two_tier_dims(max_tors=3, max_hosts_per_tor=3, max_leaves=2),
    seed=st.integers(0, 1000),
    n_flows=st.integers(1, 40),
)
@settings(max_examples=25, deadline=None)
def test_fabric_steady_state_is_maxmin(dims, seed, n_flows):
    topology = two_tier_flow(**dims)
    if topology.n_hosts < 2:
        return
    caps = topology.goodput_capacities()
    sim = FlowSim(caps, rate_update_interval_ns=0, topology=topology)
    rng = SeededRng(seed, "prop/flowsim")
    specs = []
    for _ in range(n_flows):
        src = rng.randint(0, topology.n_hosts - 1)
        dst = (src + rng.randint(1, topology.n_hosts - 1)) % topology.n_hosts
        sport = rng.randint(49152, 65535)
        fid = sim.add_host_flow(src, dst, _PERMANENT, sport=sport)
        specs.append((fid, topology.path(src, dst, sport)))
    sim.run(until_ns=1)
    reference = max_min_allocation(caps, [path for _fid, path in specs])
    rates = sim.current_rates()
    for (fid, _path), expected in zip(specs, reference):
        assert rates[fid] == pytest.approx(expected, rel=1e-9)


@given(
    dims=two_tier_dims(max_tors=2, max_hosts_per_tor=3, max_leaves=2),
    seed=st.integers(0, 1000),
    interval_us=st.sampled_from([0, 50, 500]),
)
@settings(max_examples=20, deadline=None)
def test_seeded_runs_fingerprint_identically(dims, seed, interval_us):
    def build_and_run():
        topology = two_tier_flow(**dims)
        sim = FlowSim.from_topology(
            topology, rate_update_interval_ns=interval_us * 1000
        )
        rng = SeededRng(seed, "prop/det")
        n_hosts = topology.n_hosts
        if n_hosts < 2:
            return None
        for _ in range(30):
            src = rng.randint(0, n_hosts - 1)
            dst = (src + rng.randint(1, n_hosts - 1)) % n_hosts
            sim.add_host_flow(
                src, dst, rng.randint(1024, 512 * 1024),
                start_ns=rng.randint(0, MS),
                sport=rng.randint(49152, 65535),
            )
        return sim.run()

    first, second = build_and_run(), build_and_run()
    if first is None:
        return
    assert first.fingerprint() == second.fingerprint()
    assert first.n_completed == 30


@given(n_flows=st.integers(1, 12), size_kb=st.integers(1, 4096))
@settings(max_examples=40, deadline=None)
def test_equal_split_completion_time(n_flows, size_kb):
    sim = FlowSim({"l": gbps(40) * EFFICIENCY}, rate_update_interval_ns=0)
    size = size_kb * 1024
    for _ in range(n_flows):
        sim.add_flow(("l",), size)
    run = sim.run()
    expected_ns = n_flows * size * 8e9 / (gbps(40) * EFFICIENCY)
    assert run.n_completed == n_flows
    assert run.sim_ns == pytest.approx(expected_ns, rel=1e-6, abs=2)
    assert run.total_bytes == n_flows * size


def fluid_reference(links, flows):
    """Exact mode as a per-flow fluid model: ``{flow index: finish_ns}``.

    No groups, thresholds, heaps or versions.  At every arrival or
    completion the rates are re-solved from scratch -- a fixed-rate flow
    runs at its rate and takes it off its links, ``max_min_allocation``
    splits what is left -- and every flow drains at its rate up to the
    next arrival or the next analytic finish.  The clock is integer
    nanoseconds, as the engine's is: a finish is seen at the first whole
    nanosecond at or after it.
    """
    arrivals = sorted(range(len(flows)), key=lambda i: flows[i][2])
    left, finish, now = {}, {}, 0
    while arrivals or left:
        while arrivals and flows[arrivals[0]][2] <= now:
            index = arrivals.pop(0)
            left[index] = float(flows[index][1])
        if not left:
            now = flows[arrivals[0]][2]
            continue
        caps = dict(links)
        rate = {}
        for index in left:
            path, _size, _start, fixed = flows[index]
            if fixed is not None:
                rate[index] = fixed
                for link in path:
                    caps[link] -= fixed
        responsive = [index for index in left if index not in rate]
        rate.update(zip(responsive, max_min_allocation(
            caps, [flows[index][0] for index in responsive]
        )))
        done_at = {
            index: now + math.ceil(left[index] * 8e9 / rate[index]) for index in left
        }
        until = min(done_at.values())
        if arrivals:
            until = min(until, flows[arrivals[0]][2])
        for index in list(left):
            if done_at[index] <= until:
                finish[index] = until
                del left[index]
            else:
                left[index] -= rate[index] * (until - now) / 8e9
        now = until
    return finish


def admit(sim, flows):
    return [
        sim.add_flow(path, size, start_ns=start, fixed_rate_bps=fixed)
        for path, size, start, fixed in flows
    ]


@given(program=flow_programs())
@settings(max_examples=150, deadline=None)
def test_exact_mode_matches_a_per_flow_fluid_reference(program):
    links, flows = program
    sim = FlowSim(links, rate_update_interval_ns=0)
    ids = admit(sim, flows)
    run = sim.run()
    assert run.n_active == 0
    finished = {flow_id: finish_ns for flow_id, _t0, finish_ns, _size in sim.completed}
    reference = fluid_reference(links, flows)
    assert set(finished) == set(ids)
    for index, flow_id in enumerate(ids):
        assert abs(finished[flow_id] - reference[index]) <= 2, (
            "flow %d: engine %d vs fluid reference %d"
            % (index, finished[flow_id], reference[index])
        )
    assert run.sim_ns == max(finished.values())


@given(
    program=flow_programs(),
    interval_ns=st.sampled_from([0, 700, 50_000]),
    n_slices=st.integers(1, 9),
)
@settings(max_examples=100, deadline=None)
def test_sliced_run_equals_the_one_shot_run(program, interval_ns, n_slices):
    links, flows = program
    one_shot = FlowSim(links, rate_update_interval_ns=interval_ns)
    admit(one_shot, flows)
    whole = one_shot.run()
    sliced = FlowSim(links, rate_update_interval_ns=interval_ns)
    admit(sliced, flows)
    # Horizons strictly inside the run: a horizon past the last event
    # would (rightly) leave the clock at the horizon.
    step = max(1, whole.sim_ns // (n_slices + 1))
    for until in range(step, whole.sim_ns, step):
        part = sliced.run(until_ns=until)
        assert part.sim_ns == until
        assert sliced.completed == [
            done for done in one_shot.completed if done[2] <= until
        ]
    final = sliced.run()
    assert final.fingerprint() == whole.fingerprint()
    assert final.n_superseded == whole.n_superseded
    assert sliced.completed == one_shot.completed

"""Property-based tests (hypothesis) on core data structures.

These pin down the invariants the reproduction leans on: address and
pause-quanta conversions invert, buffer accounting never leaks, max-min
allocations are feasible and fair, the event engine is causally ordered.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import install_default_auditors
from repro.packets.ethernet import mac_from_str, mac_to_str
from repro.packets.ip import ip_from_str, ip_to_str
from repro.packets.pause import MAX_QUANTA, ns_to_pause_quanta, pause_quanta_to_ns
from repro.packets.rocev2 import PSN_MASK, psn_add, psn_distance
from repro.flows.maxmin import link_utilization, max_min_allocation
from repro.sim import Simulator
from repro.sim.units import GBPS, serialization_delay_ns
from repro.switch.buffer import BufferConfig, SharedBuffer
from repro.switch.ecmp import ecmp_select
from tests.strategies import (
    buffer_ops,
    drive_incast,
    fault_plans,
    maxmin_problems,
    two_tier_dims,
)

# --- address formats --------------------------------------------------------


@given(mac=st.integers(0, (1 << 48) - 1))
def test_mac_string_round_trips(mac):
    assert mac_from_str(mac_to_str(mac)) == mac


@given(addr=st.integers(0, 2**32 - 1))
def test_ip_string_round_trips(addr):
    assert ip_from_str(ip_to_str(addr)) == addr


# --- arithmetic invariants -----------------------------------------------------


@given(psn=st.integers(0, PSN_MASK), delta=st.integers(0, PSN_MASK))
def test_psn_add_then_distance_inverts(psn, delta):
    assert psn_distance(psn_add(psn, delta), psn) == delta


@given(quanta=st.integers(1, MAX_QUANTA), rate=st.sampled_from([10, 25, 40, 50, 100]))
def test_pause_quanta_conversion_round_trips_upward(quanta, rate):
    ns = pause_quanta_to_ns(quanta, rate * GBPS)
    back = ns_to_pause_quanta(ns, rate * GBPS)
    assert quanta - 1 <= back <= quanta + 1


@given(nbytes=st.integers(1, 10_000), rate=st.sampled_from([1, 10, 40, 100]))
def test_serialization_delay_never_exceeds_line_rate(nbytes, rate):
    ns = serialization_delay_ns(nbytes, rate * GBPS)
    # ceil rounding: delay covers at least the exact wire time.
    assert ns * rate >= nbytes * 8  # rate Gb/s == bits per ns


@given(
    tup=st.tuples(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 255),
        st.integers(0, 65535),
        st.integers(0, 65535),
    ),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_ecmp_select_in_range_and_deterministic(tup, n, seed):
    choice = ecmp_select(tup, n, seed)
    assert 0 <= choice < n
    assert ecmp_select(tup, n, seed) == choice


# --- shared buffer conservation --------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(ops=buffer_ops(n_ports=4, priorities=(0, 3)))
def test_buffer_admit_release_conserves(ops):
    buffer = SharedBuffer(
        BufferConfig(alpha=None, xoff_static_bytes=64 * 1024),
        n_ports=4,
        lossless_priorities=(3,),
    )
    admitted = []
    for port, priority, nbytes in ops:
        if buffer.admit(port, priority, nbytes, lossless=(priority == 3)):
            admitted.append((port, priority, nbytes))
    assert buffer.total_occupancy == sum(n for _, _, n in admitted)
    for port, priority, nbytes in admitted:
        buffer.release(port, priority, nbytes)
    assert buffer.total_occupancy == 0
    assert buffer.shared_in_use == 0


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(64, 9000), min_size=1, max_size=100),
    alpha=st.sampled_from([1.0 / 4, 1.0 / 16, 1.0 / 64]),
)
def test_dynamic_threshold_never_negative_and_monotone(sizes, alpha):
    buffer = SharedBuffer(BufferConfig(alpha=alpha), n_ports=2, lossless_priorities=(3,))
    previous = buffer.threshold()
    for nbytes in sizes:
        buffer.admit(0, 3, nbytes, lossless=True)
        current = buffer.threshold()
        assert current >= 0
        assert current <= previous  # filling can only shrink it
        previous = current


# --- max-min allocation ------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(problem=maxmin_problems())
def test_maxmin_is_feasible_and_positive(problem):
    links, paths = problem
    rates = max_min_allocation(links, paths)
    assert all(rate > 0 for rate in rates)
    loads = link_utilization(links, paths, rates)
    for link, load in loads.items():
        assert load <= 1.0 + 1e-9  # never oversubscribed


@settings(max_examples=50, deadline=None)
@given(n_flows=st.integers(1, 30), capacity=st.integers(1, 1000))
def test_maxmin_single_link_is_equal_split(n_flows, capacity):
    rates = max_min_allocation({"l": float(capacity)}, [["l"]] * n_flows)
    assert all(abs(rate - capacity / n_flows) < 1e-9 for rate in rates)


def test_maxmin_rejects_nonpositive_capacities():
    with pytest.raises(ValueError, match="non-positive capacity"):
        max_min_allocation({"l": 0}, [["l"]])
    with pytest.raises(ValueError, match="non-positive capacity"):
        max_min_allocation({"l": -5.0}, [["l"]])


def test_maxmin_rejects_empty_capacity_map_with_routed_flows():
    with pytest.raises(ValueError, match="no link capacities"):
        max_min_allocation({}, [["l"]])


def test_maxmin_rejects_unknown_links_with_flow_index():
    with pytest.raises(KeyError, match="flow 1 uses unknown link"):
        max_min_allocation({"l": 1.0}, [["l"], ["m"]])


def test_maxmin_degenerate_inputs_still_allocate():
    # No flows at all, and flows with empty paths, are fine.
    assert max_min_allocation({}, []) == []
    assert max_min_allocation({"l": 1.0}, [[]]) == [0.0]


# --- fault injection / invariant auditors ----------------------------------------


def _drive_incast(topo, seed, message_bytes=64 * 1024):
    from repro.sim import SeededRng

    drive_incast(
        topo, 2, SeededRng(seed, "prop-traffic"), message_bytes=message_bytes
    )


@pytest.mark.faults
@settings(max_examples=8, deadline=None)
@given(dims=two_tier_dims(), seed=st.integers(0, 10_000))
def test_random_clos_under_load_never_trips_auditors_fault_free(dims, seed):
    # The auditors must never cry wolf: any well-formed topology running
    # ordinary congestion (no faults at all) stays violation-free.  Runs
    # in raise mode so the first false positive explains itself.
    from repro.sim.units import MS
    from repro.topo import two_tier

    topo = two_tier(seed=seed, **dims).boot()
    registry = install_default_auditors(topo.fabric, mode="raise").start()
    _drive_incast(topo, seed)
    topo.sim.run(until=topo.sim.now + 2 * MS)
    assert registry.clean
    assert registry.ticks >= 15


@pytest.mark.faults
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_buffer_accounting_survives_random_fault_plans(data):
    # Conservation is unconditional: whatever combination of flaps,
    # drops, corruption and reordering a random FaultPlan throws at the
    # fabric, every buffered byte stays exactly accounted.  (Liveness
    # invariants like pause-bounded are *supposed* to trip under some of
    # these plans, so only conservation is asserted.)
    from repro.sim.units import MS
    from repro.topo import two_tier

    seed = data.draw(st.integers(0, 10_000), label="seed")
    topo = two_tier(n_tors=2, hosts_per_tor=2, n_leaves=1, seed=seed).boot()
    fabric = topo.fabric
    registry = install_default_auditors(fabric).start()

    plan = data.draw(
        fault_plans(n_links=len(fabric.links), seed=seed), label="plan"
    )
    plan.apply(fabric)
    _drive_incast(topo, seed)
    topo.sim.run(until=topo.sim.now + 3 * MS)
    assert not registry.violations_for("buffer-conservation")
    assert not registry.violations_for("nic-rx-conservation")
    assert not registry.violations_for("psn-monotonic")


# --- event engine ordering ------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.integers(0, 10_000), min_size=1, max_size=100))
def test_engine_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
    sim.run_until_idle()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert sorted(d for _, d in fired) == sorted(delays)
    # And each callback observed its own schedule time.
    assert all(t == d for t, d in fired)

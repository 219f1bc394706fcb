"""The flow-level simulator (src/repro/flowsim/).

The `flowsim` lane: exact-mode steady state against the max-min
reference, byte-identical determinism, scale-mode (interval batching)
agreement with exact mode, the first-order DCQCN and PFC models, the
analytic topologies' path discipline, and F2's cross-check against the
analytic Clos model.  The datacenter-scale acceptance run (4096 hosts,
50k+ flows) lives in CI's flowsim smoke job, not here.

Run alone with ``pytest -m flowsim``.
"""

import importlib.util
import os
import struct
import zlib

import pytest

from repro.bench.scenarios import flowsim_churn, flowsim_clos

from repro.dcqcn import DcqcnConfig
from repro.flows.maxmin import max_min_allocation
from repro.flowsim import (
    EFFICIENCY,
    FlowSim,
    clos_flow,
    dcqcn_capacity_factor,
    pfc_link_model,
    single_switch_flow,
    two_tier_flow,
)
from repro.sim.rng import SeededRng
from repro.sim.units import MS, US, gbps

pytestmark = pytest.mark.flowsim


def drive_random_flows(sim, topology, n_flows, seed, max_bytes=256 * 1024,
                       window_ns=2 * MS):
    """Seeded random pair traffic; returns the flow ids."""
    rng = SeededRng(seed, "test/flowsim")
    n_hosts = topology.n_hosts
    ids = []
    for _ in range(n_flows):
        src = rng.randint(0, n_hosts - 1)
        dst = (src + rng.randint(1, n_hosts - 1)) % n_hosts
        ids.append(
            sim.add_host_flow(
                src, dst, rng.randint(1024, max_bytes),
                start_ns=rng.randint(0, window_ns),
                sport=rng.randint(49152, 65535),
            )
        )
    return ids


class TestExactModeSteadyState:
    def test_matches_maxmin_reference_on_contended_switch(self):
        topology = single_switch_flow(n_hosts=6)
        sim = FlowSim.from_topology(topology)  # exact mode
        permanent = 10 ** 15
        # 3-to-1 incast into host 0 plus two bystander pairs.
        specs = [(1, 0), (2, 0), (3, 0), (4, 5), (5, 4)]
        ids = [sim.add_host_flow(s, d, permanent) for s, d in specs]
        sim.run(until_ns=1)
        caps = topology.goodput_capacities()
        paths = [topology.path(s, d, 49152) for s, d in specs]
        reference = max_min_allocation(caps, paths)
        rates = sim.current_rates()
        for fid, expected in zip(ids, reference):
            assert rates[fid] == pytest.approx(expected, rel=1e-9)

    def test_completion_time_of_equal_split(self):
        # n identical flows on one link: each gets cap/n, finishing at
        # total_bytes * 8 / cap (within integer-ns ceiling).
        topology = single_switch_flow(n_hosts=2)
        sim = FlowSim.from_topology(topology)
        size = 1024 * 1024
        n = 4
        for _ in range(n):
            sim.add_host_flow(0, 1, size)
        run = sim.run()
        cap = gbps(40) * EFFICIENCY
        expected_ns = n * size * 8e9 / cap
        assert run.n_completed == n
        assert run.sim_ns == pytest.approx(expected_ns, rel=1e-6)
        # All four share the path group and finish together.
        assert run.max_fct_ns == run.sim_ns

    def test_rates_readjust_after_completion(self):
        topology = single_switch_flow(n_hosts=2)
        sim = FlowSim.from_topology(topology)
        short = sim.add_host_flow(0, 1, 64 * 1024)
        long = sim.add_host_flow(0, 1, 10 ** 12)
        cap = gbps(40) * EFFICIENCY
        sim.run(until_ns=1)
        assert sim.current_rates()[long] == pytest.approx(cap / 2, rel=1e-9)
        # Run past the short flow's finish: the survivor takes the link.
        sim.run(until_ns=1 * MS)
        rates = sim.current_rates()
        assert short not in rates
        assert rates[long] == pytest.approx(cap, rel=1e-9)


class TestDeterminism:
    def build_and_run(self, interval_ns):
        topology = two_tier_flow(n_tors=3, hosts_per_tor=4, n_leaves=2)
        sim = FlowSim.from_topology(topology, rate_update_interval_ns=interval_ns)
        drive_random_flows(sim, topology, n_flows=200, seed=7)
        return sim.run()

    def test_identical_fingerprints_across_runs(self):
        first = self.build_and_run(0)
        second = self.build_and_run(0)
        assert first.fingerprint() == second.fingerprint()
        assert first.n_completed == 200

    def test_fingerprint_is_integer_only(self):
        run = self.build_and_run(0)
        assert all(isinstance(v, int) for v in run.fingerprint())
        assert run.fingerprint()[-1] == run.completion_crc

    def test_scale_mode_agrees_with_exact_mode(self):
        exact = self.build_and_run(0)
        batched = self.build_and_run(100 * US)
        # Same completions; the interval approximation shifts finish
        # times by at most a few update periods on a millisecond run.
        assert batched.n_completed == exact.n_completed
        assert batched.total_bytes == exact.total_bytes
        assert batched.sim_ns == pytest.approx(exact.sim_ns, rel=0.05)
        assert batched.n_recomputes < exact.n_recomputes


def recount_summary(sim):
    """(total_bytes, sum_fct_ns, max_fct_ns, completion_crc) walked out
    of ``sim.completed`` -- what ``result()`` keeps as running values."""
    total_bytes = sum_fct = max_fct = crc = 0
    for flow_id, start_ns, finish_ns, size_bytes in sim.completed:
        total_bytes += size_bytes
        sum_fct += finish_ns - start_ns
        max_fct = max(max_fct, finish_ns - start_ns)
        crc = zlib.crc32(struct.pack("<QQ", flow_id, finish_ns), crc)
    return total_bytes, sum_fct, max_fct, crc


def summary_of(run):
    return (run.total_bytes, run.sum_fct_ns, run.max_fct_ns, run.completion_crc)


class TestRunSummary:
    def build(self):
        topology = clos_flow(4, 4, 8, 2, 4)
        sim = FlowSim.from_topology(topology, rate_update_interval_ns=2 * MS)
        drive_random_flows(sim, topology, n_flows=600, seed=3,
                           max_bytes=64 * 1024 * 1024, window_ns=40 * MS)
        return sim

    def test_sliced_summary_equals_a_recount_and_the_one_shot_run(self):
        one_shot = self.build().run()
        assert one_shot.n_completed == 600
        sim = self.build()
        until = 0
        boundaries_with_progress = 0
        seen = 0
        while until + 8 * MS < one_shot.sim_ns:
            until += 8 * MS
            run = sim.run(until_ns=until)
            assert summary_of(run) == recount_summary(sim)
            assert run.n_completed == len(sim.completed)
            assert summary_of(sim.result()) == summary_of(run)
            boundaries_with_progress += run.n_completed > seen
            seen = run.n_completed
        assert boundaries_with_progress >= 3
        final = sim.run()
        assert summary_of(final) == recount_summary(sim)
        assert final.fingerprint() == one_shot.fingerprint()

    def test_group_that_empties_and_refills(self):
        # 8e9 bps = 1 byte/ns.  The ("l",) group completes its first
        # flow at t=1000 and leaves the solver; refilled at t=5000 it
        # gets a new solver id and, until the next 1 ms tick, the
        # provisional share of the link's load as the solver counts it:
        # the newcomer plus the long ("l", "m") flow that arrived at 4000.
        sim = FlowSim({"l": 8e9, "m": 8e9}, rate_update_interval_ns=1 * MS)
        first = sim.add_flow(("l",), 1000, start_ns=0)
        sim.add_flow(("l", "m"), 10 ** 7, start_ns=4000)
        again = sim.add_flow(("l",), 1000, start_ns=5000)
        run = sim.run(until_ns=4000)
        assert [done[0] for done in sim.completed] == [first]
        assert sim.completed[0][2] == 1000
        assert summary_of(run) == recount_summary(sim)
        sim.run(until_ns=5000)
        assert sim.current_rates()[again] == 8e9 / 2
        final = sim.run()
        assert final.n_completed == 3 and final.n_active == 0
        assert summary_of(final) == recount_summary(sim)

    def test_superseded_checks_are_counted_not_fingerprinted(self):
        # Exact mode, 1 byte/ns, two 1000-byte flows on one link in two
        # groups.  Every arrival pushes a provisional prediction and the
        # same-instant recompute rebuilds the check heap without it; B's
        # arrival at 500 rebuilds A's too.  Pops: 2 arrivals and 2 live
        # checks (A done at 1500, B at 2000).  The four predictions the
        # recomputes replaced (A's two at 1000, B's two at 2500) are
        # never popped, so the run ends at 2000, not 2500.
        sim = FlowSim({"l": 8e9, "m": 8e9})
        sim.add_flow(("l",), 1000, start_ns=0)
        sim.add_flow(("l", "m"), 1000, start_ns=500)
        run = sim.run()
        assert [done[2] for done in sim.completed] == [1500, 2000]
        assert run.sim_ns == 2000
        assert run.n_events == 4
        assert run.n_superseded == 0
        assert len(run.fingerprint()) == 9

    def test_a_dropped_check_does_not_move_the_clock(self):
        # Fixed-rate checks stay in the event heap, version-stamped.  A
        # runs alone at 1 byte/ns (check at 4000); B joins "l" at 1000
        # and the 2x overload halves both (A re-predicted for 7000); B
        # done at 3000, A back to full rate and done at 5000.  A's check
        # for 7000 is popped afterwards and dropped on its version.
        sim = FlowSim({"l": 8e9, "m": 8e9})
        sim.add_flow(("l",), 4000, start_ns=0, fixed_rate_bps=8e9)
        sim.add_flow(("l", "m"), 1000, start_ns=1000, fixed_rate_bps=8e9)
        run = sim.run()
        assert [done[2] for done in sim.completed] == [3000, 5000]
        assert run.n_superseded >= 1
        assert run.sim_ns == 5000

    def test_same_instant_entries_pop_in_seq_order_across_both_heaps(self):
        # 1 byte/ns links, 1 ms ticks.  R runs alone at full rate and its
        # check for 2000 sits in the check heap; C joins "l" at 1000 but
        # no tick re-rates R before 2000.  B is admitted between two
        # slices, so its arrival at 2000 waits in the event heap with a
        # *later* seq than R's check.  Check first: R leaves, B refills
        # the group fresh at the provisional rate -- half of "l", shared
        # with C -- and finishes at 4000.  Arrival first, B would join R's
        # full-rate group and finish at 3000.
        sim = FlowSim({"l": 8e9, "m": 8e9}, rate_update_interval_ns=1 * MS)
        sim.add_flow(("l",), 2000, start_ns=0)
        sim.add_flow(("l", "m"), 10 ** 7, start_ns=1000)
        sim.run(until_ns=1500)
        late = sim.add_flow(("l",), 1000, start_ns=2000)
        sim.run(until_ns=5000)
        assert [(done[0], done[2]) for done in sim.completed] == [
            (0, 2000), (late, 4000),
        ]


def tiny_flowsim_dc_live_events():
    """perfbench's ``flowsim_dc`` job at its ``tiny`` size, seed 1, run
    the way the benchmark runs it (8 ms slices)."""
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "perfbench", "workloads.py",
    )
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    workload = module.FlowsimDc()
    ctx = workload.build(1, tiny=True)
    workload.boot(ctx)
    workload.wire(ctx)
    for _ in workload.slices(ctx):
        pass
    return ctx.result.n_events - ctx.result.n_superseded


def bench_live_events(scenario):
    run = scenario(1)
    return run.events - run.detail["superseded"]


class TestLiveEvents:
    """``n_events - n_superseded`` is what the engine *did*: arrivals,
    ticks and checks that found their group as predicted.  Which dead
    checks get popped besides is an implementation matter (PR 21 stopped
    popping nearly all of them) and moves ``n_events``; this count was
    recorded on the commit before that change and must repeat exactly."""

    @pytest.mark.parametrize("count_live, recorded", [
        (lambda: bench_live_events(flowsim_churn), 8000),
        (lambda: bench_live_events(flowsim_clos), 13649),
        (tiny_flowsim_dc_live_events, 791),
    ], ids=["flowsim_churn", "flowsim_clos", "flowsim_dc-tiny"])
    def test_live_event_count_is_conserved(self, count_live, recorded):
        assert count_live() == recorded


class TestCongestionModels:
    def test_dcqcn_factor_default_and_config(self):
        assert dcqcn_capacity_factor() == pytest.approx(1.0 - 1.0 / 1024)
        assert dcqcn_capacity_factor(DcqcnConfig(g=1.0 / 16)) == pytest.approx(
            1.0 - 1.0 / 64
        )
        with pytest.raises(ValueError):
            dcqcn_capacity_factor(DcqcnConfig(g=0.0))

    def test_pfc_own_pause_fraction(self):
        caps = {"a": 10.0, "b": 10.0}
        residual, realized, pause = pfc_link_model(
            caps, [(("a", "b"), 20.0)]
        )
        # Overloaded 2:1 on both hops: half the offered rate delivered;
        # the tail link pauses at 1 - cap/demand = 0.5, and the feeder
        # combines its own 0.5 with the 0.5 it inherits downstream.
        assert realized == [pytest.approx(0.5)]
        assert pause["a"] == pytest.approx(0.75)
        assert pause["b"] == pytest.approx(0.5)
        # Delivered fixed bytes consume the links fully; responsive
        # traffic keeps only the floor.
        assert residual["a"] == pytest.approx(10.0 * 1e-3)

    def test_pfc_congestion_spreading_victim(self):
        # An incast tree saturating link "hot" pauses its upstream
        # feeder "up"; a responsive flow crossing only "up" (never
        # oversubscribed itself) loses capacity -- the figure 8 victim.
        caps = {"up": 10.0, "hot": 10.0, "side": 10.0}
        residual, _realized, pause = pfc_link_model(
            caps, [(("up", "hot"), 30.0)]
        )
        assert pause["hot"] == pytest.approx(2.0 / 3.0)
        # "up" carries 10 offered (its share of the tree after min-cap
        # delivery) but inherits the downstream pause.
        assert residual["up"] < caps["up"] / 2
        assert "side" not in residual  # untouched links stay unscaled

    def test_fixed_flow_throttles_responsive_sharer_in_engine(self):
        topology = single_switch_flow(n_hosts=4)
        sim = FlowSim.from_topology(topology)
        cap = gbps(40) * EFFICIENCY
        # Unresponsive 2x-overload into host 0; a responsive flow shares
        # the victim's sender uplink 1->T0.
        sim.add_host_flow(1, 0, 10 ** 15, fixed_rate_bps=cap)
        sim.add_host_flow(2, 0, 10 ** 15, fixed_rate_bps=cap)
        victim = sim.add_host_flow(1, 3, 10 ** 15)
        sim.run(until_ns=1)
        victim_rate = sim.current_rates()[victim]
        assert victim_rate < 0.6 * cap
        assert sim.pause_fractions  # the PFC model engaged

    def test_fixed_flow_below_capacity_completes_on_schedule(self):
        topology = single_switch_flow(n_hosts=2)
        sim = FlowSim.from_topology(topology)
        rate = gbps(10)
        size = 1250 * 1000  # 1 ms at 10 Gb/s
        sim.add_host_flow(0, 1, size, fixed_rate_bps=rate)
        run = sim.run()
        assert run.n_completed == 1
        assert run.sim_ns == pytest.approx(size * 8e9 / rate, rel=1e-6)


class TestTopologies:
    @pytest.mark.parametrize(
        "topology",
        [
            single_switch_flow(n_hosts=4),
            two_tier_flow(n_tors=3, hosts_per_tor=2, n_leaves=2),
            clos_flow(n_podsets=2, tors_per_podset=2, hosts_per_tor=2,
                      leaves_per_podset=2, n_spines=4),
        ],
        ids=["single", "two_tier", "clos"],
    )
    def test_every_path_walks_existing_links_endpoint_to_endpoint(self, topology):
        rng = SeededRng(3, "test/paths")
        for _ in range(50):
            src = rng.randint(0, topology.n_hosts - 1)
            dst = (src + rng.randint(1, topology.n_hosts - 1)) % topology.n_hosts
            path = topology.path(src, dst, rng.randint(49152, 65535))
            assert path[0].startswith(topology.hosts[src] + ">")
            assert path[-1].endswith(">" + topology.hosts[dst])
            hops = [link.split(">") for link in path]
            for link, (a, b) in zip(path, hops):
                assert link in topology.links
            # Consecutive hops chain through shared devices.
            for (_a, b), (c, _d) in zip(hops, hops[1:]):
                assert b == c

    def test_clos_hop_counts(self):
        topology = clos_flow(n_podsets=2, tors_per_podset=2, hosts_per_tor=2,
                             leaves_per_podset=2, n_spines=4)
        hosts_per_podset = 4
        same_tor = topology.path(0, 1, 49152)
        assert len(same_tor) == 2
        same_podset = topology.path(0, 2, 49152)
        assert len(same_podset) == 4
        cross = topology.path(0, hosts_per_podset, 49152)
        assert len(cross) == 6

    def test_goodput_capacities_scale(self):
        topology = single_switch_flow(n_hosts=2, rate_bps=gbps(100))
        caps = topology.goodput_capacities(factor=0.5)
        assert all(
            cap == pytest.approx(gbps(100) * EFFICIENCY * 0.5)
            for cap in caps.values()
        )

    def test_self_flow_rejected(self):
        with pytest.raises(ValueError):
            single_switch_flow(n_hosts=2).path(1, 1, 49152)


class TestApiValidation:
    def test_add_flow_rejects_bad_specs(self):
        sim = FlowSim({"l": 1e9})
        with pytest.raises(ValueError):
            sim.add_flow((), 100)
        with pytest.raises(KeyError):
            sim.add_flow(("nope",), 100)
        with pytest.raises(ValueError):
            sim.add_flow(("l",), 0)
        # A fixed rate must be able to move bytes: 0 used to strand the
        # flow silently, a negative or NaN rate failed only inside run().
        for bad_rate in (0, -1e9, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="fixed_rate_bps"):
                sim.add_flow(("l",), 100, fixed_rate_bps=bad_rate)
        sim.add_flow(("l",), 100, start_ns=500)
        sim.run()
        with pytest.raises(ValueError):
            sim.add_flow(("l",), 100, start_ns=0)  # in the past now

    def test_add_flow_rejects_a_routing_loop(self):
        # The solver would constrain the flow once on "a" while
        # link_utilization() counted it twice: {"a": 2.0, "b": 1.0} at
        # 10 Gb/s, a link flagged that is not oversubscribed.
        sim = FlowSim({"a": 10e9, "b": 10e9})
        with pytest.raises(ValueError, match="link 'a' twice"):
            sim.add_flow(["a", "b", "a"], 10 ** 6)
        sim.add_flow(["a", "b"], 10 ** 6)
        sim.run(until_ns=1)
        assert sim.link_utilization() == {"a": 1.0, "b": 1.0}

    def test_add_host_flow_needs_topology(self):
        with pytest.raises(ValueError):
            FlowSim({"l": 1e9}).add_host_flow(0, 1, 100)

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            FlowSim({"l": 1e9}, rate_update_interval_ns=-1)

    def test_link_utilization_is_bounded(self):
        topology = two_tier_flow(n_tors=2, hosts_per_tor=4, n_leaves=2)
        sim = FlowSim.from_topology(topology)
        drive_random_flows(sim, topology, n_flows=60, seed=11,
                           max_bytes=10 ** 9)
        sim.run(until_ns=1 * MS)
        utilization = sim.link_utilization()
        assert utilization
        assert max(utilization.values()) <= 1.0 + 1e-9

    def test_active_flow_paths_tracks_live_flows(self):
        topology = single_switch_flow(n_hosts=2)
        sim = FlowSim.from_topology(topology)
        fid = sim.add_host_flow(0, 1, 10 ** 12)
        sim.run(until_ns=1)
        assert sim.active_flow_paths() == {fid: topology.path(0, 1, 49152)}


class TestFigure7CrossCheck:
    def test_flowsim_reproduces_the_analytic_maxmin_allocation(self):
        """F2: flowsim over the figure-7 model's paths lands on the
        analytic max-min rates to float precision, 5.120 Tb/s both ways."""
        from repro.experiments.flowsim_scale import run_flowsim_figure7

        rows = {row["view"]: row for row in run_flowsim_figure7(seed=1).rows()}
        assert rows["model-paths"]["max_rel_err"] <= 1e-6
        for row in rows.values():
            assert "%.3f" % row["aggregate_tbps"] == "5.120"

"""F1/F2 -- datacenter-scale experiments on the flow-level simulator.

The packet engine tops out near a podset; these runners exercise the
scale the paper actually deployed at (tens of thousands of hosts across
a 3-tier Clos) using :mod:`repro.flowsim`:

* :func:`run_flowsim_scale` (F1) -- a >=4096-host Clos carrying >=50k
  flows drawn from the shared storage/web size CDFs
  (:mod:`repro.workloads.distributions`), paired cross-podset the way
  the paper's ToR-pair experiments are.  Emits only simulation-domain
  quantities (deterministic, machine-diffable rows); wall-clock
  performance is tracked by perfbench's ``flowsim_dc`` workload instead.
* :func:`run_flowsim_figure7` (F2) -- the figure 7 fabric cross-check:
  flowsim run directly over :class:`repro.flows.clos_model.ClosFlowModel`
  paths must reproduce the analytic max-min aggregate exactly (the
  model's paths are the flow tier's own ECMP draws over the one fabric
  spec, so this compares two solvers over one placement).
"""

import struct
import zlib

from repro.experiments.result import ExperimentResult
from repro.flows.clos_model import ClosFlowModel
from repro.flows.maxmin import max_min_allocation
from repro.flowsim.engine import FlowSim
from repro.flowsim.topo import EFFICIENCY, clos_flow
from repro.sim.rng import SeededRng
from repro.sim.units import MS, US, gbps
from repro.workloads.distributions import NAMED_CDFS


class FlowsimScaleResult(ExperimentResult):
    title = "F1: flow-level datacenter-scale Clos (sections 1, 5.4)"

    def __init__(self, rows, run):
        super().__init__(rows)
        #: The :class:`FlowsimRun` behind the row.  Simulator
        #: self-metrics (``n_superseded``) are read from here; the row,
        #: and so every campaign artifact, carries simulated quantities only.
        self.run = run


class FlowsimFigure7Result(ExperimentResult):
    title = "F2: flowsim vs analytic Clos model, figure 7 (section 5.4)"


def _pair_sport(src, dst):
    """One stable UDP source port per directed host pair (one QP)."""
    return 49152 + (zlib.crc32(struct.pack("<II", src, dst)) % 16384)


def build_scale_workload(
    sim,
    topology,
    seed,
    workload="storage",
    flows_per_pair=13,
    arrival_window_ms=100,
    n_podsets=8,
):
    """Cross-podset pair traffic: every host exchanges ``flows_per_pair``
    flows with its partner (same ToR/host slot, opposite half of the
    fabric), sizes from the named CDF, arrivals uniform in the window.

    Returns the number of flows scheduled.
    """
    cdf = NAMED_CDFS[workload]
    rng = SeededRng(seed, "flowsim/workload/%s" % workload)
    n_hosts = topology.n_hosts
    per_podset = n_hosts // n_podsets
    window_ns = arrival_window_ms * MS
    n_flows = 0
    for src in range(n_hosts):
        podset, slot = divmod(src, per_podset)
        dst = ((podset + n_podsets // 2) % n_podsets) * per_podset + slot
        sport = _pair_sport(src, dst)
        for _ in range(flows_per_pair):
            sim.add_host_flow(
                src, dst,
                cdf.sample(rng),
                start_ns=rng.randint(0, window_ns - 1),
                sport=sport,
            )
            n_flows += 1
    return n_flows


def run_flowsim_scale(
    seed=1,
    workload="storage",
    n_podsets=8,
    tors_per_podset=16,
    hosts_per_tor=32,
    leaves_per_podset=4,
    n_spines=8,
    link_gbps=40,
    flows_per_pair=13,
    arrival_window_ms=100,
    rate_update_interval_us=2000,
):
    """F1: run the scale scenario to completion; one row per run.

    Defaults: 4096 hosts (8 podsets x 16 ToRs x 32 hosts), 53,248 flows
    -- past the paper's single-cluster scale for ToR-pair traffic, and
    three orders of magnitude beyond the packet engine's reach.
    """
    if n_podsets % 2:
        raise ValueError("n_podsets must be even (cross-podset pairing)")
    if workload not in NAMED_CDFS:
        raise ValueError("unknown workload %r (have %s)"
                         % (workload, ", ".join(sorted(NAMED_CDFS))))
    topology = clos_flow(
        n_podsets=n_podsets,
        tors_per_podset=tors_per_podset,
        hosts_per_tor=hosts_per_tor,
        leaves_per_podset=leaves_per_podset,
        n_spines=n_spines,
        rate_bps=gbps(link_gbps),
    )
    sim = FlowSim.from_topology(
        topology, rate_update_interval_ns=rate_update_interval_us * US
    )
    n_flows = build_scale_workload(
        sim, topology, seed,
        workload=workload,
        flows_per_pair=flows_per_pair,
        arrival_window_ms=arrival_window_ms,
        n_podsets=n_podsets,
    )
    run = sim.run()
    # Imported here: `repro.bench` loads the gate and its scenarios,
    # which F2 (the other runner in this module) does not use.
    from repro.bench.digest import digest

    row = {
        "seed": seed,
        "workload": workload,
        "hosts": topology.n_hosts,
        "links": topology.n_links,
        "flows": n_flows,
        "completed": run.n_completed,
        "events": run.n_events,
        "recomputes": run.n_recomputes,
        "sim_ms": run.sim_ns / MS,
        "total_gbytes": run.total_bytes / 1e9,
        "agg_goodput_gbps": (
            run.total_bytes * 8e9 / run.sim_ns / 1e9 if run.sim_ns else 0.0
        ),
        "mean_fct_ms": (
            run.sum_fct_ns / run.n_completed / MS if run.n_completed else 0.0
        ),
        "max_fct_ms": run.max_fct_ns / MS,
        "fingerprint": digest(run.fingerprint()),
    }
    return FlowsimScaleResult([row], run)


def scale_claims(rows):
    """F1 runs to completion: no flow is left unfinished at 4096 hosts."""
    return [("every flow completes", row["completed"] == row["flows"]) for row in rows]


def run_flowsim_figure7(seed=1, rate_update_interval_us=0):
    """F2: two views of figure 7's fabric, cross-checked.

    Row ``analytic-maxmin`` is :class:`ClosFlowModel`'s reference
    max-min allocation; row ``model-paths`` is flowsim driven over the
    same flow paths -- its steady-state rates must reproduce the
    model's allocation to float precision (``max_rel_err``), so the
    aggregate matches exactly.
    """
    model = ClosFlowModel(seed=seed)
    ideal = model.run("maxmin")
    leaf_spine_cap = ideal.leaf_spine_capacity_bps

    # -- model paths through flowsim ---------------------------------------
    sim = FlowSim(
        ideal.link_capacities,
        rate_update_interval_ns=rate_update_interval_us * US,
    )
    flow_ids = [
        sim.add_flow(path, size_bytes=10 ** 15) for path in ideal.paths
    ]
    sim.run(until_ns=1)
    rates = sim.current_rates()
    max_rel_err = max(
        abs(rates[fid] - expected) / expected
        for fid, expected in zip(flow_ids, ideal.rates_bps)
    )
    flowsim_agg = sum(rates[fid] for fid in flow_ids)
    rows = [
        {
            "view": "analytic-maxmin",
            "qps": len(ideal.rates_bps),
            "aggregate_tbps": ideal.aggregate_bps / 1e12,
            "utilization": ideal.utilization,
            "max_rel_err": None,
        },
        {
            "view": "model-paths",
            "qps": len(flow_ids),
            "aggregate_tbps": flowsim_agg / 1e12,
            "utilization": flowsim_agg / leaf_spine_cap,
            "max_rel_err": max_rel_err,
        },
    ]
    return FlowsimFigure7Result(rows)

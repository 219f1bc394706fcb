"""E5 -- aggregate RDMA throughput in a three-tier Clos (paper
section 5.4, figure 7).

Two podsets x 576 servers, ToRs paired one-to-one, 8 servers per ToR,
8 QPs per server, every QP saturating: 3072 QPs over the 128 40 GbE
leaf-spine links.  Paper: 3.0 Tb/s aggregate = 60% of the 5.12 Tb/s
leaf-spine capacity, limited by ECMP hash collision ("not PFC or HOL
blocking"), with not a single packet dropped and every server at
~8 Gb/s.

This runner evaluates the full-scale fabric at flow level (see
:mod:`repro.flows` for why that is the faithful fidelity here) and, as a
cross-check, a scaled-down packet-level run that verifies the zero-drop
claim with PFC active.
"""

from repro.flows import ClosFlowModel
from repro.sim import SeededRng
from repro.sim.units import GBPS, MB, MS
from repro.topo import three_tier_clos
from repro.experiments.common import ExperimentResult, saturate_pairs


class ClosThroughputResult(ExperimentResult):
    title = "E5: Clos aggregate throughput, figure 7 (section 5.4)"


def run_clos_throughput(seeds=(1, 2, 3), packet_level_check=True):
    """Reproduce figure 7(b)'s steady state."""
    rows = []
    for seed in seeds:
        model = ClosFlowModel(seed=seed)
        result = model.run("pfc-uniform")
        ideal = model.run("maxmin")
        rows.append(
            {
                "seed": seed,
                "qps": len(result.rates_bps),
                "aggregate_tbps": result.aggregate_bps / 1e12,
                "utilization": result.utilization,
                "per_server_gbps": result.per_server_gbps(),
                "mframes_per_sec": result.frames_per_second() / 1e6,
                "maxmin_utilization": ideal.utilization,
            }
        )
    if packet_level_check:
        rows.append(_packet_level_check())
    return ClosThroughputResult(rows)


def _packet_level_check(seed=1, duration_ns=4 * MS):
    """A small 3-tier packet-level run: saturating cross-podset pairs
    with PFC active must complete the window with zero packet drops."""
    topo = three_tier_clos(
        n_podsets=2,
        tors_per_podset=2,
        hosts_per_tor=2,
        leaves_per_podset=2,
        n_spines=2,
        seed=seed,
    ).boot()
    sim = topo.sim
    rng = SeededRng(seed, "clos-check")
    hosts = topo.hosts
    half = len(hosts) // 2
    pairs = [(hosts[i], hosts[half + i]) for i in range(half)]
    pairs += [(hosts[half + i], hosts[i]) for i in range(half)]
    senders = saturate_pairs(sim, pairs, 1 * MB, rng)
    start = sim.now
    sim.run(until=start + duration_ns)
    total_bytes = sum(s.completed_bytes for s in senders)
    aggregate_gbps = total_bytes * 8.0 / (sim.now - start)
    return {
        "seed": "packet-level",
        "qps": len(senders),
        "aggregate_tbps": aggregate_gbps / 1000,
        "utilization": None,
        "per_server_gbps": aggregate_gbps / len(hosts),
        "mframes_per_sec": None,
        "maxmin_utilization": None,
        "drops": topo.fabric.total_drops(),
    }


def claims(rows):
    """Figure 7: 3.0 Tb/s, 60% of the 5.12 Tb/s leaf-spine capacity,
    ~8 Gb/s per server, and not a single packet dropped."""
    verdicts = []
    for row in (r for r in rows if r["utilization"] is not None):
        seed = row["seed"]
        verdicts += [
            ("seed %s: utilization in [0.55, 0.70]" % seed,
             0.55 <= row["utilization"] <= 0.70),
            ("seed %s: aggregate in [2.8, 3.6] Tb/s" % seed,
             2.8 <= row["aggregate_tbps"] <= 3.6),
            ("seed %s: per server in [7.0, 9.5] Gb/s" % seed,
             7.0 <= row["per_server_gbps"] <= 9.5),
            # The idealized max-min bound shows hash placement alone is
            # not the whole story -- the PFC-coupled fabric loses more.
            ("seed %s: max-min bound >= utilization" % seed,
             row["maxmin_utilization"] >= row["utilization"]),
        ]
    packet_row = next(r for r in rows if r["seed"] == "packet-level")
    # "not a single packet was dropped"
    verdicts.append(("packet level: zero drops", packet_row["drops"] == 0))
    return verdicts

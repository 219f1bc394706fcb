"""One runner per paper table/figure.

Each module exposes a ``run_*`` function returning a result object with
``rows()`` (list of dicts) and ``format_table()`` (printable), and beside
it a ``claims(rows)`` function -- the paper's claims as named verdicts,
which ``python -m repro run`` judges (see :mod:`.catalog`).  The records
in ``EXPERIMENTS.md`` are generated from these.

==========  =======================================  ======================
Experiment  Paper reference                          Module
==========  =======================================  ======================
E1          section 4.1 (livelock)                   livelock
E2          section 4.2, figure 4 (deadlock)         deadlock
E3          section 4.3, figures 5+9 (PFC storm)     storm
E4          section 5.4, figure 6 (latency vs TCP)   latency_cdf
E5          section 5.4, figure 7 (Clos throughput)  clos_throughput
E6          section 5.4, figure 8 (latency vs load)  congestion_latency
E7          section 4.4 (slow receiver)              slow_receiver
E8          section 6.2, figure 10 (buffer alpha)    buffer_misconfig
E9          section 3 (DSCP vs VLAN PFC)             dscp_vs_vlan
E10         section 1 (CPU overhead)                 cpu_overhead
E11         section 2 (headroom sizing)              headroom
F1          sections 1, 5.4 (datacenter scale)       flowsim_scale
F2          section 5.4, figure 7 (flowsim check)    flowsim_scale
==========  =======================================  ======================
"""

from repro.experiments.ablations import (
    run_alpha_sweep,
    run_cc_comparison,
    run_ecn_sweep,
    run_gbn_waste,
    run_interdc_distance,
    run_routing_models,
    run_tcp_flavours,
)
from repro.experiments.flowsim_scale import run_flowsim_figure7, run_flowsim_scale
from repro.experiments.livelock import run_livelock
from repro.experiments.deadlock import run_deadlock
from repro.experiments.storm import run_storm
from repro.experiments.latency_cdf import run_latency_vs_tcp
from repro.experiments.clos_throughput import run_clos_throughput
from repro.experiments.congestion_latency import run_congestion_latency
from repro.experiments.slow_receiver import run_slow_receiver
from repro.experiments.buffer_misconfig import run_buffer_misconfig
from repro.experiments.dscp_vs_vlan import run_dscp_vs_vlan
from repro.experiments.cpu_overhead import run_cpu_overhead
from repro.experiments.headroom import run_headroom

__all__ = [
    "run_livelock",
    "run_deadlock",
    "run_storm",
    "run_latency_vs_tcp",
    "run_clos_throughput",
    "run_congestion_latency",
    "run_slow_receiver",
    "run_buffer_misconfig",
    "run_dscp_vs_vlan",
    "run_cpu_overhead",
    "run_headroom",
    "run_cc_comparison",
    "run_alpha_sweep",
    "run_ecn_sweep",
    "run_gbn_waste",
    "run_routing_models",
    "run_interdc_distance",
    "run_tcp_flavours",
    "run_flowsim_scale",
    "run_flowsim_figure7",
]

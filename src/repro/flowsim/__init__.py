"""Flow-level fast-path simulator (the second simulation tier).

The packet engine (:mod:`repro.sim`) models every frame; this package
models every *flow*: arrivals and completions drive incremental max-min
rate recomputation (:class:`repro.flows.maxmin.MaxMinSolver`) over an
analytic capacity graph, with first-order ECN/DCQCN and aggregate-PFC
models standing in for per-packet congestion control.  Three orders of
magnitude faster -- a 4096-host Clos with 50k flows runs in seconds --
and cross-validated against the packet engine by the ``flowsim-model``
oracle of :mod:`repro.validation`.  Model fidelity and its limits
are documented in docs/flowsim.md.

* :mod:`~repro.flowsim.engine` -- the event loop (:class:`FlowSim`).
* :mod:`~repro.flowsim.topo` -- capacity graphs and ECMP path walks
  derived from the fabric spec the packet builders instantiate
  (:mod:`repro.spec`; :class:`FlowTopology`).
* :mod:`~repro.flowsim.models` -- the DCQCN utilization factor and the
  PFC pause-fraction / congestion-spreading model.
* ``python -m repro run F1`` / ``F2`` -- the scale run and the figure-7
  cross-check from the command line.
"""

from repro.flowsim.engine import FlowSim, FlowsimRun
from repro.flowsim.models import dcqcn_capacity_factor, pfc_link_model
from repro.flowsim.topo import (
    EFFICIENCY,
    FlowTopology,
    clos_flow,
    single_switch_flow,
    two_tier_flow,
)

__all__ = [
    "FlowSim",
    "FlowsimRun",
    "FlowTopology",
    "single_switch_flow",
    "two_tier_flow",
    "clos_flow",
    "dcqcn_capacity_factor",
    "pfc_link_model",
    "EFFICIENCY",
]

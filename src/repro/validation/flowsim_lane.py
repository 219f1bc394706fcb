"""Packet-vs-flowsim differential lane.

PR 5's differential subsystem keeps the packet engine honest against
the analytic flow models; this lane closes the loop the other way and
keeps the *flow-level simulator* honest against the packet engine.  Per
seed:

1. The packet run: :func:`repro.validation.differential.run_scenario`
   on the generated scenario -- measured goodput per flow, plus the
   traced paths (realized ECMP collisions included).
2. The flowsim run: the same traced paths as permanent flows over the
   same goodput capacities, exact mode
   (``rate_update_interval_ns=0``).  Its steady-state rates are the
   incremental solver's max-min allocation.
3. Oracles:

   * ``flowsim-model`` -- flowsim's steady rate must equal the packet
     harness's independently computed max-min share to float precision
     (:data:`FlowsimTolerances.model_rel_err`).  This is the two
     implementations (lazy-heap incremental vs reference scan) agreeing
     on the same fixpoint through two different pipelines.
   * ``flowsim-band`` -- the packet engine's *measured* goodput must
     sit in the flowsim-anchored band: at least ``flow_lo`` x the
     PFC-uniform rate (``progress_lo`` in lossy runs), at most
     ``flow_hi`` x the flowsim rate, never past the bottleneck cap, and
     the aggregate at least ``agg_lo`` of flowsim's total.  The band
     fractions deliberately reuse :class:`repro.validation.oracles
     .Tolerances` -- the flow-level anchor is the same max-min fixpoint,
     so the packet-engine slack (window limitation, PFC coupling,
     transient pauses) is the same slack; docs/flowsim.md discusses why
     no extra flow-level margin is needed in exact mode.

Deadlock-kind scenarios are skipped: they have no traced paths and no
steady state (that lane belongs to the deadlock progress oracles).
"""

import json
import os

from repro.experiments.common import ExperimentResult
from repro.flowsim.engine import FlowSim
from repro.flowsim.topo import EFFICIENCY
from repro.sim.units import gbps
from repro.validation.differential import run_scenario
from repro.validation.oracles import Tolerances
from repro.validation.scenarios import generate_scenario

DEFAULT_ARTIFACT_DIR = os.path.join("artifacts", "flowsim-differential")

#: Permanent-flow stand-in size: large enough that nothing completes
#: inside the probe run.
_PERMANENT_BYTES = 10 ** 15


class FlowsimTolerances(Tolerances):
    """Band parameters for the flowsim differential lane.

    Inherits every band fraction from the packet-vs-model
    :class:`Tolerances` (same anchor, same slack -- see module
    docstring) and adds the model-agreement precision.
    """

    #: flowsim steady rate vs the harness's max-min share: both are
    #: max-min fixpoints of the identical (capacities, paths) problem,
    #: computed by independent implementations; only float freeze-order
    #: rounding may differ.
    model_rel_err = 1e-6


class FlowsimSeedReport:
    """One seed's packet-vs-flowsim verdict."""

    def __init__(self, scenario, outcome, flow_rates, violations, skipped=False):
        self.scenario = scenario
        self.outcome = outcome
        self.flow_rates = flow_rates  # per scenario flow, flowsim bps (or None)
        self.violations = violations
        self.skipped = skipped

    @property
    def clean(self):
        return not self.violations


class FlowsimDifferentialResult(ExperimentResult):
    title = "V2: packet engine vs flow-level simulator (differential)"


def _violation(oracle, subject, detail):
    return {"oracle": oracle, "subject": subject, "detail": detail}


def flowsim_rates_for_outcome(outcome, link_gbps):
    """Replay a packet run's traced flows through flowsim (exact mode).

    Returns per-flow steady-state goodput bps, aligned with
    ``outcome.flows``.  Capacities reconstruct the generated fabrics'
    uniform link rate, goodput-scaled exactly like
    :func:`repro.validation.differential.expected_allocation`.
    """
    cap = gbps(link_gbps) * EFFICIENCY
    caps = {}
    for flow in outcome.flows:
        for link in flow.path:
            caps[link] = cap
    sim = FlowSim(caps, rate_update_interval_ns=0)
    flow_ids = [
        sim.add_flow(flow.path, _PERMANENT_BYTES) for flow in outcome.flows
    ]
    sim.run(until_ns=1)
    rates = sim.current_rates()
    return [rates[fid] for fid in flow_ids]


def judge_flowsim_run(outcome, flow_rates, tolerances=FlowsimTolerances):
    """Both flowsim oracles against one packet outcome."""
    violations = []
    lossy = outcome.scenario.lossy
    lo_frac = tolerances.progress_lo if lossy else tolerances.flow_lo
    total_measured = 0.0
    total_flowsim = 0.0
    for flow, flowsim_bps in zip(outcome.flows, flow_rates):
        subject = "flow %s->%s" % (flow.src, flow.dst)
        # Oracle 1: two max-min implementations, one fixpoint.
        if flow.share_bps:
            rel = abs(flowsim_bps - flow.share_bps) / flow.share_bps
            if rel > tolerances.model_rel_err:
                violations.append(
                    _violation(
                        "flowsim-model",
                        subject,
                        "flowsim %.6f Gb/s vs max-min share %.6f Gb/s "
                        "(rel err %.2e > %.0e)"
                        % (flowsim_bps / 1e9, flow.share_bps / 1e9, rel,
                           tolerances.model_rel_err),
                    )
                )
        if flow.dead_dst:
            continue
        total_measured += flow.measured_bps
        total_flowsim += flowsim_bps
        # Oracle 2: packet-measured goodput in the flowsim-anchored band.
        if flow.uniform_bps:
            floor = lo_frac * flow.uniform_bps
            if flow.measured_bps < floor:
                violations.append(
                    _violation(
                        "flowsim-band",
                        subject,
                        "measured %.3f Gb/s < %.2f x uniform %.3f Gb/s"
                        % (flow.measured_bps / 1e9, lo_frac,
                           flow.uniform_bps / 1e9),
                    )
                )
        if flow.bottleneck_bps and (
            flow.measured_bps > tolerances.cap_slack * flow.bottleneck_bps
        ):
            violations.append(
                _violation(
                    "flowsim-band",
                    subject,
                    "measured %.3f Gb/s beats the %.3f Gb/s bottleneck"
                    % (flow.measured_bps / 1e9, flow.bottleneck_bps / 1e9),
                )
            )
        elif not lossy and flow.measured_bps > tolerances.flow_hi * flowsim_bps:
            violations.append(
                _violation(
                    "flowsim-band",
                    subject,
                    "measured %.3f Gb/s > %.2f x flowsim rate %.3f Gb/s"
                    % (flow.measured_bps / 1e9, tolerances.flow_hi,
                       flowsim_bps / 1e9),
                )
            )
    if not lossy and total_flowsim and (
        total_measured < tolerances.agg_lo * total_flowsim
    ):
        violations.append(
            _violation(
                "flowsim-band",
                "aggregate",
                "aggregate %.3f Gb/s < %.2f x flowsim total %.3f Gb/s"
                % (total_measured / 1e9, tolerances.agg_lo,
                   total_flowsim / 1e9),
            )
        )
    return violations


def validate_flowsim_seed(seed, tolerances=FlowsimTolerances):
    """One seed end to end; returns a :class:`FlowsimSeedReport`."""
    scenario = generate_scenario(seed)
    if scenario.kind == "deadlock":
        return FlowsimSeedReport(scenario, None, [], [], skipped=True)
    outcome = run_scenario(scenario)
    flow_rates = flowsim_rates_for_outcome(outcome, scenario.link_gbps)
    violations = judge_flowsim_run(outcome, flow_rates, tolerances)
    return FlowsimSeedReport(scenario, outcome, flow_rates, violations)


def run_flowsim_differential_sweep(
    seeds=25,
    start=0,
    artifact_dir=DEFAULT_ARTIFACT_DIR,
    fail_fast=False,
    progress=None,
):
    """Sweep ``seeds`` scenarios through both engines (catalog ``V2``).

    One row per seed; failures leave a replayable JSON artifact naming
    the scenario, both engines' per-flow rates, and the violations.
    """
    rows = []
    for seed in range(start, start + seeds):
        report = validate_flowsim_seed(seed)
        row = _report_row(report)
        if not report.clean:
            row["artifact"] = _write_artifact(report, artifact_dir)
        rows.append(row)
        if progress is not None:
            progress(report, row)
        if fail_fast and not report.clean:
            break
    return FlowsimDifferentialResult(rows)


def _report_row(report):
    scenario = report.scenario
    row = {
        "seed": scenario.seed,
        "kind": scenario.kind,
        "flows": len(scenario.flows),
        "link_gbps": scenario.link_gbps,
        "ecn": scenario.ecn,
        "lossy": scenario.lossy,
        "skipped": report.skipped,
        "violations": len(report.violations),
        "oracles": ",".join(sorted({v["oracle"] for v in report.violations})),
        "max_model_rel_err": None,
        "min_band_ratio": None,
        "max_band_ratio": None,
    }
    if report.skipped:
        return row
    rel_errs = [
        abs(rate - flow.share_bps) / flow.share_bps
        for flow, rate in zip(report.outcome.flows, report.flow_rates)
        if flow.share_bps
    ]
    ratios = [
        flow.measured_bps / rate
        for flow, rate in zip(report.outcome.flows, report.flow_rates)
        if rate and not flow.dead_dst
    ]
    if rel_errs:
        row["max_model_rel_err"] = float("%.3e" % max(rel_errs))
    if ratios:
        row["min_band_ratio"] = round(min(ratios), 4)
        row["max_band_ratio"] = round(max(ratios), 4)
    return row


def _write_artifact(report, artifact_dir):
    os.makedirs(artifact_dir, exist_ok=True)
    path = os.path.join(artifact_dir, "seed%d.json" % report.scenario.seed)
    payload = {
        "schema": "flowsim-differential/1",
        "scenario": report.scenario.to_dict(),
        "violations": report.violations,
        "flows": [
            {
                "src": flow.src,
                "dst": flow.dst,
                "measured_bps": flow.measured_bps,
                "share_bps": flow.share_bps,
                "flowsim_bps": rate,
                "path": list(flow.path),
            }
            for flow, rate in zip(report.outcome.flows, report.flow_rates)
        ],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path

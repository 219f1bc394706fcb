"""Whole-run and metamorphic oracles.

Every oracle returns a list of violation dicts
``{"oracle", "subject", "detail"}`` -- empty means the run passed.
:func:`judge_run` applies the single-run oracles (it is called by
``run_scenario`` itself); the metamorphic checks re-run transformed
scenarios and live in :func:`metamorphic_checks`.

Tolerance rationale (see docs/validation.md for the full discussion):

* Conservation oracles are exact -- a single lost byte is a bug.
* Goodput bands are deliberately asymmetric.  The *lower* anchor is the
  PFC-uniform rate (fair share of the most contended link), which is
  provably <= every flow's max-min share; PFC head-of-line coupling and
  closed-loop pipelining can legitimately hold a flow below its max-min
  share, but a flow pinned *far below the uniform rate* means the
  transport or fabric is broken (the go-back-0 livelock reads ~0 here).
  The *upper* anchor is the max-min share with generous headroom (a flow
  may exceed its fair share while a competitor is briefly paused), plus
  a hard physical cap: no flow can beat its bottleneck link.
* Liveness bounds (pause resolves, queues drain) are strict in benign
  scenarios -- nothing in a fault-free fabric may wedge.
* The flow tier's rate is held to float precision: flowsim and the
  reference max-min scan solve the identical problem.
"""

from repro.validation.scenarios import LINK_GBPS_MENU


class Tolerances:
    """Band parameters for the differential oracles.

    Values are tuned empirically against the seed sweep (the harness's
    ``--seeds 200`` must be violation-free on main) while staying tight
    enough that the mutation checks fail loudly; see docs/validation.md.
    """

    #: measured >= flow_lo * uniform rate (benign scenarios).  A flow
    #: can sit well below even the uniform rate when its sender is
    #: window-limited (pipeline depth x message size < bandwidth-delay
    #: product at 100G) -- the floor only catches flows pinned near zero.
    flow_lo = 0.30
    #: measured <= flow_hi * max-min share.  Generous: when a
    #: competitor on the bottleneck is window-limited, the remaining
    #: flows legitimately absorb its unused share (the hard cap below
    #: still enforces physics).
    flow_hi = 1.80
    #: measured <= cap_slack * bottleneck capacity (hard physical bound).
    cap_slack = 1.02
    #: sum(measured) >= agg_lo * sum(max-min shares).
    agg_lo = 0.55
    #: lossy scenarios: measured >= progress_lo * uniform rate only
    #: (go-back-N keeps moving through 1/256 loss; go-back-0 reads ~0).
    progress_lo = 0.02
    #: doubling every link rate scales each flow's goodput into this band.
    scale_lo = 1.45
    scale_hi = 2.60
    #: permuting host ids leaves the sorted rate vector inside this band.
    perm_lo = 0.80
    perm_hi = 1.25
    #: adding a link-disjoint flow keeps each old flow above this
    #: fraction of its baseline rate.
    victim_keep = 0.70
    #: flowsim steady rate vs the max-min share: both are max-min
    #: fixpoints of the identical (capacities, paths) problem, computed
    #: by independent implementations; only float freeze-order rounding
    #: may differ.
    model_rel_err = 1e-6


def judge_run(outcome, tolerances=Tolerances):
    """All single-run oracles against one :class:`RunOutcome`."""
    violations = []
    violations += oracle_conservation(outcome)
    violations += oracle_no_unexplained_drops(outcome)
    violations += oracle_drain(outcome)
    if outcome.scenario.kind == "deadlock":
        violations += oracle_healthy_progress(outcome)
    else:
        violations += oracle_goodput_band(outcome, tolerances)
        violations += oracle_flowsim_model(outcome, tolerances)
    return violations


def _violation(oracle, subject, detail):
    return {"oracle": oracle, "subject": subject, "detail": detail}


def oracle_conservation(outcome):
    """Conservation auditors must be clean in every run; liveness
    auditors must be clean in benign (non-deadlock) runs."""
    violations = []
    if outcome.conservation_violations:
        violations.append(
            _violation(
                "conservation",
                "auditors",
                "%d conservation violation(s): %s"
                % (outcome.conservation_violations, outcome.audit_summary),
            )
        )
    if outcome.scenario.kind != "deadlock" and outcome.liveness_violations:
        violations.append(
            _violation(
                "liveness",
                "auditors",
                "%d liveness violation(s) in a fault-free run: %s"
                % (outcome.liveness_violations, outcome.audit_summary),
            )
        )
    return violations


def oracle_no_unexplained_drops(outcome):
    """A benign lossless fabric drops nothing and never floods.

    Allowed exceptions: the deliberate ingress filter in lossy
    scenarios, and the lossless-ARP drops (plus floods of lossy-class
    retransmissions) that *are* the fix under test in deadlock runs.
    """
    allowed = set()
    if outcome.scenario.lossy:
        allowed.add("filter")
    if outcome.scenario.kind == "deadlock":
        allowed.update(("incomplete-arp-lossless", "arp-miss"))
    unexplained = outcome.drops_excluding(*allowed)
    violations = []
    if unexplained:
        detail = ", ".join(
            "%s=%d" % (reason, count)
            for reason, count in sorted(outcome.drops.items())
            if count and reason not in allowed
        )
        violations.append(
            _violation("drops", "switches", "unexplained drops: %s" % detail)
        )
    if outcome.scenario.kind != "deadlock" and outcome.flood_copies:
        violations.append(
            _violation(
                "drops",
                "switches",
                "%d flooded copies in a fully-resolved fabric" % outcome.flood_copies,
            )
        )
    return violations


def oracle_drain(outcome):
    """After senders stop, every posted message completes and (benign
    runs) every queue empties.  A fabric that cannot drain is wedged."""
    violations = []
    if not outcome.drained:
        stuck = [
            "%s->%s %d/%d" % (f.src, f.dst, f.completed, f.posted)
            for f in outcome.flows
            if not f.dead_dst and f.completed != f.posted
        ]
        violations.append(
            _violation(
                "drain",
                "senders",
                "posted messages never completed within %dms: %s"
                % (outcome.scenario.drain_ms, "; ".join(stuck)),
            )
        )
    if not outcome.queues_empty:
        violations.append(
            _violation("drain", "fabric", "queues not empty after drain")
        )
    return violations


def oracle_goodput_band(outcome, tolerances=Tolerances):
    """The differential core: measured per-flow goodput vs the traced
    max-min/PFC-uniform band, plus the hard bottleneck cap."""
    violations = []
    lossy = outcome.scenario.lossy
    lo_frac = tolerances.progress_lo if lossy else tolerances.flow_lo
    total_measured = 0.0
    total_share = 0.0
    for flow in outcome.flows:
        subject = "flow %s->%s" % (flow.src, flow.dst)
        total_measured += flow.measured_bps
        total_share += flow.share_bps
        floor = lo_frac * flow.uniform_bps
        if flow.measured_bps < floor:
            violations.append(
                _violation(
                    "goodput-low",
                    subject,
                    "measured %.3f Gb/s < %.2f x uniform %.3f Gb/s"
                    % (flow.measured_bps / 1e9, lo_frac, flow.uniform_bps / 1e9),
                )
            )
        cap = tolerances.cap_slack * flow.bottleneck_bps
        if flow.measured_bps > cap:
            violations.append(
                _violation(
                    "goodput-high",
                    subject,
                    "measured %.3f Gb/s beats the %.3f Gb/s bottleneck link"
                    % (flow.measured_bps / 1e9, flow.bottleneck_bps / 1e9),
                )
            )
        elif not lossy and flow.measured_bps > tolerances.flow_hi * flow.share_bps:
            violations.append(
                _violation(
                    "goodput-high",
                    subject,
                    "measured %.3f Gb/s > %.2f x max-min share %.3f Gb/s"
                    % (flow.measured_bps / 1e9, tolerances.flow_hi,
                       flow.share_bps / 1e9),
                )
            )
    if not lossy and total_measured < tolerances.agg_lo * total_share:
        violations.append(
            _violation(
                "goodput-low",
                "aggregate",
                "aggregate %.3f Gb/s < %.2f x max-min total %.3f Gb/s"
                % (total_measured / 1e9, tolerances.agg_lo, total_share / 1e9),
            )
        )
    return violations


def oracle_flowsim_model(outcome, tolerances=Tolerances):
    """Two max-min implementations, one fixpoint: flowsim's steady rate
    on each traced path equals the reference max-min share."""
    violations = []
    for flow in outcome.flows:
        rel = abs(flow.flowsim_bps - flow.share_bps) / flow.share_bps
        if rel > tolerances.model_rel_err:
            violations.append(
                _violation(
                    "flowsim-model",
                    "flow %s->%s" % (flow.src, flow.dst),
                    "flowsim %.6f Gb/s vs max-min share %.6f Gb/s "
                    "(rel err %.2e > %.0e)"
                    % (flow.flowsim_bps / 1e9, flow.share_bps / 1e9, rel,
                       tolerances.model_rel_err),
                )
            )
    return violations


def oracle_healthy_progress(outcome):
    """Deadlock probe: flows between live hosts must keep completing.
    Flooding-induced deadlock starves them (the figure 4 outcome)."""
    violations = []
    for flow in outcome.flows:
        if flow.dead_dst:
            continue
        if flow.measured_bps <= 0 and flow.completed == 0:
            violations.append(
                _violation(
                    "healthy-progress",
                    "flow %s->%s" % (flow.src, flow.dst),
                    "no progress between live hosts (deadlock signature)",
                )
            )
    return violations


# -- metamorphic relations ----------------------------------------------------


def metamorphic_checks(scenario, base_outcome, run_fn, tolerances=Tolerances):
    """Relations that compare the base run against a transformed re-run.

    Each seed runs exactly one relation (rotation by ``seed % 3``) to
    keep sweep cost linear in seeds; lossy and deadlock scenarios are
    exempt (loss timing is not scale- or permutation-invariant).
    """
    if scenario.kind == "deadlock" or scenario.lossy:
        return []
    which = scenario.seed % 3
    if which == 0:
        return check_scaling(scenario, base_outcome, run_fn, tolerances)
    if which == 1 and scenario.kind == "single":
        return check_permutation(scenario, base_outcome, run_fn, tolerances)
    if which == 2 and scenario.kind == "single":
        return check_no_victim(scenario, base_outcome, run_fn, tolerances)
    return []


def check_scaling(scenario, base_outcome, run_fn, tolerances=Tolerances):
    """Doubling every link rate must (roughly) double every flow's rate.

    Only meaningful while the senders stay link-limited: past the top of
    the deployed rate menu the closed-loop window (pipeline depth x
    message size) caps goodput regardless of line rate, so the relation
    is checked only when the doubled rate stays within the menu's reach.
    """
    if scenario.link_gbps * 2 > max(LINK_GBPS_MENU):
        return []
    scaled = run_fn(scenario.replace(link_gbps=scenario.link_gbps * 2))
    violations = list(scaled.violations)
    for base_flow, scaled_flow in zip(base_outcome.flows, scaled.flows):
        if base_flow.measured_bps <= 0:
            continue
        ratio = scaled_flow.measured_bps / base_flow.measured_bps
        if not tolerances.scale_lo <= ratio <= tolerances.scale_hi:
            violations.append(
                _violation(
                    "metamorphic-scaling",
                    "flow %s->%s" % (base_flow.src, base_flow.dst),
                    "2x link rate scaled goodput by %.2fx (band %.2f..%.2f)"
                    % (ratio, tolerances.scale_lo, tolerances.scale_hi),
                )
            )
    return violations


def check_permutation(scenario, base_outcome, run_fn, tolerances=Tolerances):
    """Rotating host ids on a symmetric single-switch fabric must leave
    the sorted per-flow rate vector (near) unchanged."""
    n_hosts = scenario.host_count()
    rotated_flows = [
        ((src + 1) % n_hosts, (dst + 1) % n_hosts, kb)
        for src, dst, kb in scenario.flows
    ]
    rotated = run_fn(scenario.replace(flows=[list(f) for f in rotated_flows]))
    violations = list(rotated.violations)
    base_rates = sorted(f.measured_bps for f in base_outcome.flows)
    rot_rates = sorted(f.measured_bps for f in rotated.flows)
    for base_bps, rot_bps in zip(base_rates, rot_rates):
        if base_bps <= 0:
            continue
        ratio = rot_bps / base_bps
        if not tolerances.perm_lo <= ratio <= tolerances.perm_hi:
            violations.append(
                _violation(
                    "metamorphic-permutation",
                    "sorted rates",
                    "host rotation changed a rate by %.2fx (band %.2f..%.2f)"
                    % (ratio, tolerances.perm_lo, tolerances.perm_hi),
                )
            )
    return violations


def check_no_victim(scenario, base_outcome, run_fn, tolerances=Tolerances):
    """Adding a flow on otherwise-unused hosts (link-disjoint on a
    single switch) must not starve the existing flows."""
    n_hosts = scenario.host_count()
    used = {h for src, dst, _kb in scenario.flows for h in (src, dst)}
    spare = [h for h in range(n_hosts) if h not in used]
    if len(spare) < 2:
        return []
    extra = (spare[0], spare[1], 128)
    augmented = run_fn(
        scenario.replace(flows=[list(f) for f in scenario.flows] + [list(extra)])
    )
    violations = list(augmented.violations)
    for base_flow, aug_flow in zip(base_outcome.flows, augmented.flows):
        if base_flow.measured_bps <= 0:
            continue
        keep = aug_flow.measured_bps / base_flow.measured_bps
        if keep < tolerances.victim_keep:
            violations.append(
                _violation(
                    "no-victim",
                    "flow %s->%s" % (base_flow.src, base_flow.dst),
                    "disjoint flow %s->%s cut goodput to %.2fx of baseline"
                    % (extra[0], extra[1], keep),
                )
            )
    return violations

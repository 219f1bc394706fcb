"""Sweep driver, scenario shrinker, repro artifacts, mutation checks.

The harness is what turns the oracles into a usable subsystem:

* :func:`validate_seed` -- one seed end to end (run + metamorphic).
* :func:`run_validation_sweep` -- N seeds as an
  :class:`~repro.experiments.common.ExperimentResult` (catalog entry
  ``V1``, so campaigns parallelize/cache/resume sweeps like any other
  experiment, and ``run`` judges :func:`claims` on its rows).
* :func:`shrink_scenario` -- greedy minimization of a failing scenario:
  drop flows, shrink messages, shrink the fabric, halve the window --
  keeping each step only if the failure survives.
* repro artifacts -- JSONL files carrying the original scenario, its
  violations, and the minimized scenario; :func:`replay_artifact` loads
  and re-runs one.
* :func:`mutation_check` -- sensitivity proof: re-introduce a paper bug
  (go-back-0 recovery, disabled lossless-ARP drop) and require the
  oracles to flag it, with a minimized artifact as the receipt.
"""

import json
import os

from repro.artifact import ArtifactError, read_jsonl
from repro.experiments.common import ExperimentResult
from repro.validation.differential import run_scenario
from repro.validation.oracles import metamorphic_checks
from repro.validation.scenarios import (
    ValidationScenario,
    deadlock_probe_scenario,
    generate_scenario,
    livelock_probe_scenario,
)

DEFAULT_ARTIFACT_DIR = os.path.join("artifacts", "validation")

#: mutation name -> (probe scenario factory, description).
MUTATIONS = {
    "go-back-0": (
        livelock_probe_scenario,
        "revert go-back-N loss recovery to the vendor go-back-0 "
        "(section 4.1: livelock under deterministic 1/256 loss)",
    ),
    "no-arp-drop": (
        deadlock_probe_scenario,
        "disable the lossless-ARP drop deadlock fix "
        "(section 4.2: flooding builds the figure 4 cyclic dependency)",
    ),
}


class SeedReport:
    """One seed's full verdict: base run plus metamorphic re-runs."""

    def __init__(self, scenario, outcome, violations):
        self.scenario = scenario
        self.outcome = outcome
        self.violations = violations

    @property
    def clean(self):
        return not self.violations


def validate_seed(seed, metamorphic=True, tolerances=None):
    """Run one generated scenario through every applicable oracle."""
    scenario = generate_scenario(seed)
    return validate_scenario(scenario, metamorphic=metamorphic, tolerances=tolerances)


def validate_scenario(scenario, metamorphic=True, mutation=None, tolerances=None):
    kwargs = {} if tolerances is None else {"tolerances": tolerances}
    outcome = run_scenario(scenario, mutation=mutation, tolerances=tolerances)
    violations = list(outcome.violations)
    if metamorphic and mutation is None:
        violations += metamorphic_checks(
            scenario,
            outcome,
            lambda transformed: run_scenario(
                transformed, mutation=mutation, tolerances=tolerances
            ),
            **kwargs
        )
    return SeedReport(scenario, outcome, violations)


# -- shrinking ----------------------------------------------------------------


def shrink_scenario(scenario, still_fails, max_runs=40):
    """Greedy minimization: apply one reduction at a time, keep it only
    if ``still_fails(candidate)`` -- re-running the full check -- stays
    true.  Budgeted to ``max_runs`` re-runs; returns the smallest
    failing scenario found.
    """
    budget = [max_runs]

    def attempt(candidate):
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        try:
            return still_fails(candidate)
        except Exception:
            # A reduction that crashes the run is not a valid repro.
            return False

    current = scenario
    progress = True
    while progress and budget[0] > 0:
        progress = False
        # 1. Drop flows one at a time (fewest flows first wins).
        if len(current.flows) > 1:
            for index in range(len(current.flows)):
                flows = [list(f) for i, f in enumerate(current.flows) if i != index]
                candidate = current.replace(flows=flows)
                if attempt(candidate):
                    current = candidate
                    progress = True
                    break
            if progress:
                continue
        # 2. Shrink message sizes.
        smaller = [
            [src, dst, max(64, kb // 2)] for src, dst, kb in current.flows
        ]
        if smaller != [list(f) for f in current.flows]:
            candidate = current.replace(flows=smaller)
            if attempt(candidate):
                current = candidate
                progress = True
                continue
        # 3. Shrink the fabric to just the hosts the flows use.
        candidate = _shrink_dims(current)
        if candidate is not None and attempt(candidate):
            current = candidate
            progress = True
            continue
        # 4. Halve the measurement window (floor 200 us).
        if current.measure_us > 400:
            candidate = current.replace(measure_us=max(200, current.measure_us // 2))
            if attempt(candidate):
                current = candidate
                progress = True
                continue
    return current


def _shrink_dims(scenario):
    """A smaller fabric that still contains every flow endpoint, by
    collapsing multi-tier scenarios onto a single switch."""
    if scenario.kind == "deadlock":
        return None
    used = {h for src, dst, _kb in scenario.flows for h in (src, dst)}
    needed = max(used) + 1 if used else 2
    if scenario.kind == "single":
        if scenario.dims["n_hosts"] <= max(2, needed):
            return None
        return scenario.replace(dims={"n_hosts": max(2, needed)})
    # Renumber endpoints densely onto one switch.
    order = sorted(used)
    remap = {host: i for i, host in enumerate(order)}
    flows = [[remap[src], remap[dst], kb] for src, dst, kb in scenario.flows]
    return scenario.replace(
        kind="single", dims={"n_hosts": max(2, len(order))}, flows=flows
    )


# -- artifacts ----------------------------------------------------------------


def write_artifact(path, scenario, violations, minimized=None,
                   minimized_violations=None, mutation=None):
    """A replayable JSONL repro: one record per line, scenario dicts
    verbatim.  ``replay_artifact`` consumes the same format."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    records = [
        {
            "record": "scenario",
            "mutation": mutation,
            "scenario": scenario.to_dict(),
        },
        {"record": "violations", "violations": violations},
    ]
    if minimized is not None:
        records.append(
            {
                "record": "minimized",
                "mutation": mutation,
                "scenario": minimized.to_dict(),
                "violations": minimized_violations or [],
            }
        )
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    return path


def replay_artifact(path, prefer_minimized=True, metamorphic=False):
    """Re-run the scenario recorded in an artifact; returns the fresh
    :class:`SeedReport` (violations and all).  An artifact that cannot
    be read, or holds no well-formed scenario record, raises
    :class:`repro.artifact.ArtifactError`."""
    chosen = None
    for number, record in enumerate(read_jsonl(path), 1):
        if "record" not in record:
            raise ArtifactError(path, number, "not a validation repro record")
        if record["record"] == "minimized" and prefer_minimized:
            chosen = number, record
        elif record["record"] == "scenario" and chosen is None:
            chosen = number, record
    if chosen is None:
        raise ArtifactError(path, 0, "no scenario record")
    number, record = chosen
    try:
        scenario = ValidationScenario.from_dict(record["scenario"])
        scenario.host_count()  # builds the spec: unknown kind, bad dims
    except (KeyError, TypeError, ValueError):
        raise ArtifactError(path, number, "malformed scenario record") from None
    return validate_scenario(
        scenario, metamorphic=metamorphic, mutation=record.get("mutation")
    )


# -- sweep --------------------------------------------------------------------


class ValidationSweepResult(ExperimentResult):
    title = "V1: differential validation sweep (packet sim vs flow model)"


def run_validation_sweep(
    seeds=25,
    start=0,
    metamorphic=True,
    shrink=True,
    artifact_dir=DEFAULT_ARTIFACT_DIR,
    fail_fast=False,
    progress=None,
):
    """Sweep ``seeds`` generated scenarios; shrink and record failures.

    Returns a :class:`ValidationSweepResult` with one row per seed
    (JSON-scalar cells only, so campaign artifacts diff cleanly).
    """
    rows = []
    for seed in range(start, start + seeds):
        report = validate_seed(seed, metamorphic=metamorphic)
        row = _report_row(report)
        if not report.clean:
            # Shrink against the single-run oracles only: metamorphic
            # re-runs triple the shrinker's cost and the single-run
            # failure, when there is one, is the more direct repro.  A
            # purely-metamorphic failure is recorded unshrunk (every
            # reduction's re-run would pass).
            row["artifact"], _minimized = _record_failure(
                os.path.join(artifact_dir, "seed%d.jsonl" % seed),
                report,
                shrink=shrink and bool(report.outcome.violations),
            )
        rows.append(row)
        if progress is not None:
            progress(report, row)
        if fail_fast and not report.clean:
            break
    return ValidationSweepResult(rows)


def claims(rows):
    """Every swept seed passes every oracle."""
    return [
        ("seed %d: zero oracle violations" % row["seed"], row["violations"] == 0)
        for row in rows
    ]


def _record_failure(path, report, shrink=True, mutation=None, max_runs=40):
    """Shrink a failing report's scenario against the single-run oracles,
    re-judge the minimized scenario and write both as a JSONL repro.
    Returns ``(path, minimized scenario)``."""
    scenario = report.scenario

    def still_fails(candidate):
        return not validate_scenario(candidate, metamorphic=False, mutation=mutation).clean

    minimized = shrink_scenario(scenario, still_fails, max_runs) if shrink else scenario
    minimized_report = validate_scenario(minimized, metamorphic=False, mutation=mutation)
    write_artifact(
        path,
        scenario,
        report.violations,
        minimized=minimized,
        minimized_violations=minimized_report.violations,
        mutation=mutation,
    )
    return path, minimized


def _report_row(report):
    outcome = report.outcome
    scenario = report.scenario
    ratios = [
        flow.measured_bps / flow.share_bps
        for flow in outcome.flows
        if flow.share_bps
    ]
    model_errs = [
        abs(flow.flowsim_bps - flow.share_bps) / flow.share_bps
        for flow in outcome.flows
        if flow.share_bps
    ]
    return {
        "seed": scenario.seed,
        "kind": scenario.kind,
        "hosts": scenario.host_count(),
        "flows": len(scenario.flows),
        "link_gbps": scenario.link_gbps,
        "ecn": scenario.ecn,
        "lossy": scenario.lossy,
        "violations": len(report.violations),
        "oracles": ",".join(
            sorted({v["oracle"] for v in report.violations})
        ),
        "drained": outcome.drained,
        "drops": outcome.total_drops,
        "pause_frames": outcome.pause_frames,
        "min_share_ratio": round(min(ratios), 4) if ratios else None,
        "max_share_ratio": round(max(ratios), 4) if ratios else None,
        "max_model_rel_err": float("%.3e" % max(model_errs)) if model_errs else None,
    }


# -- mutation sensitivity -----------------------------------------------------


def mutation_check(which=None, artifact_dir=DEFAULT_ARTIFACT_DIR, shrink=True):
    """Prove the oracles catch re-introduced paper bugs.

    For each mutation: the probe scenario must pass clean *without* the
    mutation (the probe itself is fair) and must be flagged *with* it;
    the failing run is shrunk and written as a replayable artifact.
    Returns ``{mutation: {"caught", "baseline_clean", "artifact", ...}}``.
    """
    names = [which] if which else sorted(MUTATIONS)
    results = {}
    for name in names:
        factory, description = MUTATIONS[name]
        scenario = factory()
        baseline = validate_scenario(scenario, metamorphic=False)
        mutated = validate_scenario(scenario, metamorphic=False, mutation=name)
        artifact = None
        minimized = scenario
        if mutated.violations:
            artifact, minimized = _record_failure(
                os.path.join(artifact_dir, "mutation-%s.jsonl" % name),
                mutated,
                shrink=shrink,
                mutation=name,
                max_runs=20,
            )
        results[name] = {
            "description": description,
            "baseline_clean": baseline.clean,
            "caught": bool(mutated.violations),
            "oracles": sorted({v["oracle"] for v in mutated.violations}),
            "artifact": artifact,
            "minimized_flows": len(minimized.flows),
        }
    return results

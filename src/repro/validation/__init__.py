"""Differential + metamorphic validation of the packet simulator.

The packet-level model and the flow-level analytic models answer the
same questions about the same fabrics; this package makes them check
each other.  `scenarios` generates seeded random Clos slices with
workload matrices, `differential` runs one scenario through the packet
simulator and traces the flows' realized paths into the max-min model,
`oracles` judges the run (conservation, goodput bands, drain,
metamorphic relations), and `harness` sweeps seeds, shrinks failures
to minimal scenarios and emits replayable JSONL artifacts.

`flowsim_lane` turns the machinery around: the same seeded scenarios
run through the packet engine *and* the flow-level simulator
(:mod:`repro.flowsim`), with oracles requiring the two tiers to agree
(flowsim's steady rates match the max-min shares to float precision;
packet-measured goodput sits in the flowsim-anchored band).

Command line (docs/cli.md)::

    python -m repro validate --seeds 200
    python -m repro mutation-check
    python -m repro replay artifacts/validation/seed42.jsonl
    python -m repro differential --seeds 100
"""

from repro.validation.scenarios import (
    ValidationScenario,
    generate_scenario,
    scenario_strategy,
)
from repro.validation.differential import RunOutcome, run_scenario, trace_flow_path
from repro.validation.oracles import Tolerances, judge_run
from repro.validation.harness import (
    MUTATIONS,
    mutation_check,
    replay_artifact,
    run_validation_sweep,
    shrink_scenario,
    validate_seed,
)
from repro.validation.flowsim_lane import (
    FlowsimTolerances,
    run_flowsim_differential_sweep,
    validate_flowsim_seed,
)

__all__ = [
    "ValidationScenario",
    "generate_scenario",
    "scenario_strategy",
    "RunOutcome",
    "run_scenario",
    "trace_flow_path",
    "Tolerances",
    "judge_run",
    "MUTATIONS",
    "mutation_check",
    "replay_artifact",
    "run_validation_sweep",
    "shrink_scenario",
    "validate_seed",
    "FlowsimTolerances",
    "run_flowsim_differential_sweep",
    "validate_flowsim_seed",
]

"""The differential validation subsystem (src/repro/validation/).

The `validation` lane: scenario-generator determinism and round-trips,
a small clean oracle sweep, the flow tier as an oracle (flowsim's rates
on the traced paths against the max-min shares), mutation sensitivity
(the go-back-0 probe must be flagged), shrinking, and artifact replay.
The full 200-seed acceptance sweep runs in CI's validation job, not
here.

Run alone with ``pytest -m validation``.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.__main__ import main
from repro.artifact import read_jsonl
from repro.validation import (
    MUTATIONS,
    RunOutcome,
    Tolerances,
    ValidationScenario,
    generate_scenario,
    judge_run,
    mutation_check,
    replay_artifact,
    run_scenario,
    run_validation_sweep,
    shrink_scenario,
    validate_seed,
)
from repro.validation import differential, harness
from repro.validation.harness import validate_scenario, write_artifact
from repro.validation.scenarios import (
    MAX_FLOWS,
    MAX_FLOWS_PER_DST,
    deadlock_probe_scenario,
    host_count,
    livelock_probe_scenario,
)
from tests.strategies import validation_scenarios

pytestmark = pytest.mark.validation


# --- scenario generation ------------------------------------------------------


class TestScenarioGenerator:
    def test_same_seed_same_scenario(self):
        assert generate_scenario(7) == generate_scenario(7)
        assert generate_scenario(7) != generate_scenario(8)

    def test_dict_round_trip_survives_json(self):
        for seed in range(30):
            scenario = generate_scenario(seed)
            wire = json.loads(json.dumps(scenario.to_dict()))
            assert ValidationScenario.from_dict(wire) == scenario

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=validation_scenarios())
    def test_generated_scenarios_are_well_formed(self, scenario):
        n_hosts = host_count(scenario.kind, scenario.dims)
        assert 1 <= len(scenario.flows) <= MAX_FLOWS
        dst_load = {}
        for src, dst, kb in scenario.flows:
            assert 0 <= src < n_hosts
            assert 0 <= dst < n_hosts
            assert src != dst
            assert kb > 0
            dst_load[dst] = dst_load.get(dst, 0) + 1
        assert all(n <= MAX_FLOWS_PER_DST for n in dst_load.values())

    def test_replace_overrides_without_mutating(self):
        scenario = generate_scenario(3)
        doubled = scenario.replace(link_gbps=scenario.link_gbps * 2)
        assert doubled.link_gbps == 2 * scenario.link_gbps
        assert doubled.flows == scenario.flows
        assert generate_scenario(3) == scenario  # original untouched


# --- oracles on live runs -----------------------------------------------------


class TestOracles:
    def test_single_flow_scenario_is_clean_and_near_line_rate(self):
        scenario = ValidationScenario(
            seed=0,
            kind="single",
            dims={"n_hosts": 2},
            link_gbps=40,
            flows=[(0, 1, 128)],
        )
        outcome = run_scenario(scenario)
        assert isinstance(outcome, RunOutcome)
        assert outcome.violations == []
        assert outcome.drained and outcome.queues_empty
        flow = outcome.flows[0]
        # One flow, one link: max-min share == uniform == bottleneck.
        assert flow.share_bps == flow.uniform_bps == flow.bottleneck_bps
        assert flow.measured_bps > 0.9 * flow.share_bps

    def test_seed_sweep_of_a_few_scenarios_is_clean(self, tmp_path):
        result = run_validation_sweep(
            seeds=3, metamorphic=False, artifact_dir=str(tmp_path)
        )
        result.check_schema()
        rows = result.rows()
        assert len(rows) == 3
        assert all(row["violations"] == 0 for row in rows)
        assert all(0 <= row["max_model_rel_err"] <= Tolerances.model_rel_err for row in rows)
        assert not list(tmp_path.iterdir())  # clean runs leave no artifacts

    def test_tolerances_can_force_a_violation(self):
        # The bands are live: an absurd lower band must flag a healthy run.
        class Impossible(Tolerances):
            # Nothing sustains >100% of the uniform rate (either floor
            # applies, depending on whether seed 0 drew a lossy run).
            flow_lo = 1.01
            progress_lo = 1.01

        report = validate_seed(0, metamorphic=False, tolerances=Impossible)
        assert any(v["oracle"] == "goodput-low" for v in report.violations)


# --- the flow tier as an oracle -----------------------------------------------


class TestFlowsimOracle:
    """Each run's traced paths also go through flowsim in exact mode, and
    ``flowsim-model`` holds its steady rates to the max-min shares."""

    @pytest.mark.parametrize("seed", range(4))
    def test_seed_is_clean(self, seed):
        outcome = run_scenario(generate_scenario(seed))
        assert outcome.violations == []
        assert all(flow.flowsim_bps is not None for flow in outcome.flows)

    def test_deadlock_kind_skips_the_flowsim_oracle(self, tmp_path, monkeypatch):
        # The seed map never draws the deadlock kind (it is the fixed
        # figure 4 probe), but replay paths can hand one in: it has no
        # traced paths, so flowsim has nothing to run.
        monkeypatch.setattr(harness, "generate_scenario", lambda seed: deadlock_probe_scenario())
        (row,) = run_validation_sweep(
            seeds=1, metamorphic=False, artifact_dir=str(tmp_path)
        ).rows()
        assert row["kind"] == "deadlock" and row["violations"] == 0
        assert row["max_model_rel_err"] is None

    def test_sweep_rows_and_schema(self, tmp_path):
        # Seeds past the V1 sweep test's 0..2: each row is in seed order,
        # passes every oracle and holds flowsim to the max-min shares.
        result = run_validation_sweep(
            seeds=3, start=4, metamorphic=False, artifact_dir=str(tmp_path)
        )
        result.check_schema()
        rows = result.rows()
        assert [row["seed"] for row in rows] == [4, 5, 6]
        for row in rows:
            assert row["violations"] == 0
            assert 0 <= row["max_model_rel_err"] <= Tolerances.model_rel_err
        assert not list(tmp_path.iterdir())  # clean runs leave no artifacts

    def test_report_row_fields(self):
        row = harness._report_row(validate_seed(0, metamorphic=False))
        assert set(row) >= {
            "seed", "kind", "flows", "violations", "oracles",
            "min_share_ratio", "max_share_ratio", "max_model_rel_err",
        }
        assert row["seed"] == 0 and row["max_model_rel_err"] is not None

    def test_tampered_rate_trips_flowsim_model(self):
        outcome = run_scenario(generate_scenario(1))
        for flow in outcome.flows:
            flow.flowsim_bps *= 1.5
        assert {v["oracle"] for v in judge_run(outcome)} == {"flowsim-model"}

    @pytest.mark.parametrize("shrink", [True, False], ids=["shrunk", "whole"])
    def test_a_flowsim_model_violation_replays_from_its_artifact(
        self, shrink, tmp_path, monkeypatch, capsys
    ):
        # Seed 8 is one flow on a two-host switch: cheap to shrink.
        real = differential.flowsim_allocation
        monkeypatch.setattr(differential, "flowsim_allocation",
                            lambda paths: [1.5 * rate for rate in real(paths)])
        (row,) = run_validation_sweep(
            seeds=1, start=8, metamorphic=False, shrink=shrink, artifact_dir=str(tmp_path)
        ).rows()
        assert row["oracles"] == "flowsim-model"
        assert row["artifact"] == str(tmp_path / "seed8.jsonl")
        capsys.readouterr()
        assert main(["replay", row["artifact"]]) == 1
        out = capsys.readouterr().out
        assert out.startswith("replayed seed=8 ") and "[flowsim-model]" in out


# --- mutation sensitivity, shrinking, replay ----------------------------------


class TestMutationAndReplay:
    def test_go_back_0_mutation_is_caught_with_replayable_artifact(self, tmp_path):
        results = mutation_check(which="go-back-0", artifact_dir=str(tmp_path))
        info = results["go-back-0"]
        assert info["baseline_clean"], "livelock probe must pass without the bug"
        assert info["caught"], "oracles missed the reverted go-back-0 recovery"
        assert "drain" in info["oracles"] or "goodput-low" in info["oracles"]
        # The artifact replays to the same verdict.
        report = replay_artifact(info["artifact"])
        assert report.violations, "minimized repro did not reproduce"

    def test_shrinker_drops_redundant_flows(self):
        base = livelock_probe_scenario()
        padded = base.replace(
            flows=[list(f) for f in base.flows] + [[1, 0, 64]],
            dims={"n_hosts": 3},
        )

        def still_fails(candidate):
            return bool(
                validate_scenario(
                    candidate, metamorphic=False, mutation="go-back-0"
                ).violations
            )

        minimized = shrink_scenario(padded, still_fails, max_runs=12)
        assert len(minimized.flows) < len(padded.flows)

    def test_artifact_round_trip_prefers_minimized(self, tmp_path):
        scenario = generate_scenario(5)
        minimized = scenario.replace(measure_us=200)
        path = write_artifact(
            str(tmp_path / "repro.jsonl"),
            scenario,
            [{"oracle": "x", "subject": "s", "detail": "d"}],
            minimized=minimized,
            minimized_violations=[],
        )
        records = read_jsonl(path)
        assert [r["record"] for r in records] == [
            "scenario",
            "violations",
            "minimized",
        ]
        assert ValidationScenario.from_dict(records[2]["scenario"]) == minimized

    def test_mutation_registry_names_both_paper_bugs(self):
        assert set(MUTATIONS) == {"go-back-0", "no-arp-drop"}

    def test_replay_cli_on_every_byte_prefix_replays_or_exits_2(self, tmp_path, capsys):
        """A repro artifact cut at any byte is either replayed (what
        survived is whole records) or refused with one ``path:line:
        reason`` line on stderr and exit status 2 -- never a traceback."""
        scenario = ValidationScenario(
            seed=0, kind="two_tier", dims={"n_tors": 2, "hosts_per_tor": 1, "n_leaves": 1},
            link_gbps=40, flows=[(0, 1, 64)], warmup_us=50, measure_us=100, drain_ms=2,
        )
        artifact = write_artifact(
            str(tmp_path / "full.jsonl"),
            scenario,
            [{"oracle": "x", "subject": "s", "detail": "d"}],
            minimized=scenario.replace(measure_us=80),
            minimized_violations=[],
        )
        with open(artifact, "rb") as handle:
            data = handle.read()
        path = str(tmp_path / "cut.jsonl")
        replays = refusals = 0
        for cut in range(len(data) + 1):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            status = main(["replay", path])
            out, err = capsys.readouterr()
            if status == 2:
                assert out == "" and err.startswith(path + ":") and err.count("\n") == 1
                refusals += 1
            else:
                assert status in (0, 1) and out.startswith("replayed seed=0 two_tier")
                assert err == ""
                replays += 1
        # Whole-record prefixes: after each of the three lines, with and
        # without its newline.
        assert replays == 6 and refusals == len(data) + 1 - replays

    @pytest.mark.parametrize(
        "content,reason",
        [
            (None, "No such file"),
            (b"", "empty artifact"),
            (b'{"record":"scenario","mutation":null,"scen', "not a JSON record"),
            (b'{"type":"meta"}\n', "unknown artifact kind"),
            (b'{"record":"violations","violations":[]}\n', "no scenario record"),
            (b'{"record":"scenario","scenario":{"seed":1}}\n', "malformed scenario"),
            (b'{"record":"scenario","scenario":{"seed":1,"kind":"ring","dims":{},'
             b'"link_gbps":40,"flows":[]}}\n', "malformed scenario"),
        ],
    )
    def test_replay_cli_refuses_unreadable_artifacts(self, tmp_path, capsys, content, reason):
        path = str(tmp_path / "artifact.jsonl")
        if content is not None:
            with open(path, "wb") as handle:
                handle.write(content)
        assert main(["replay", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(path + ":") and reason in err
        assert err.count("\n") == 1

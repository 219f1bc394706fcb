"""The campaign orchestrator: specs, cache, pool, and determinism.

The load-bearing promise is the last test class: a campaign fanned out
over worker processes produces row-for-row *identical* results to
calling the runners serially in-process -- including for a target that
injects a :class:`FaultPlan` mid-run.  Parallelism and caching must be
invisible in the artifacts, or cached sweeps would be unscientific.
"""

import json
import os
import time

import pytest

from repro.campaign import (
    Campaign,
    CampaignStore,
    ResultCache,
    SpecError,
    SweepSpec,
    pool,
    run_key,
)
from repro.campaign.spec import RunSpec
from repro.experiments.result import ExperimentResult, SchemaError
from repro.faults import FaultPlan, install_default_auditors
from repro.obs import TELEMETRY
from repro.rdma.verbs import connect_qp_pair
from repro.sim import SeededRng
from repro.sim.units import KB, MS
from repro.switch.buffer import BufferConfig
from repro.topo import single_switch
from repro.workloads import ClosedLoopSender, RdmaChannel

pytestmark = pytest.mark.campaign


# -- a seeded, fault-injected campaign target (module-level: worker
# -- processes resolve it by reference) ------------------------------------


def run_faulted_incast(duration_ns=3 * MS, seed=5, drop_probability=0.02):
    """3:1 incast with a lossy server link and a mid-run link flap."""
    topo = single_switch(
        n_hosts=4,
        seed=seed,
        buffer_config=BufferConfig(alpha=None, xoff_static_bytes=48 * KB),
    ).boot()
    registry = install_default_auditors(topo.fabric, mode="record").start()
    plan = (
        FaultPlan("campaign-incast", seed=seed)
        .drop(("S1", "T0"), probability=drop_probability, match="data", at_ns=1 * MS)
        .flap_link(("S2", "T0"), at_ns=int(1.5 * MS), down_ns=100_000)
    )
    plan.apply(topo.fabric)
    rng = SeededRng(seed, "campaign-incast")
    victim = topo.hosts[0]
    qps = []
    for src in topo.hosts[1:]:
        qp, _ = connect_qp_pair(src, victim, rng)
        qps.append(qp)
        ClosedLoopSender(RdmaChannel(qp), 64 * KB).start()
    topo.sim.run(until=topo.sim.now + duration_ns)
    rows = [
        {
            "sender": "S%d" % (index + 1),
            "seed": seed,
            "data_packets": qp.stats.data_packets_sent,
            "bytes_completed": qp.stats.bytes_completed,
            "naks": qp.stats.naks_received,
            "retransmits": qp.stats.retransmitted_packets,
            "pause_frames": topo.tor.pause_frames_sent(),
            "invariant_violations": registry.violation_count,
        }
        for index, qp in enumerate(qps)
    ]
    return ExperimentResult(rows)


FAULT_REF = "tests.test_campaign:run_faulted_incast"


def run_nothing():
    """A runner whose result has no rows."""
    return ExperimentResult([])


EMPTY_REF = "tests.test_campaign:run_nothing"


# -- result schema / JSONL --------------------------------------------------


class TestResultSchema:
    def test_to_jsonl_is_canonical(self, tmp_path):
        result = ExperimentResult([{"a": 1, "b": 2.5}, {"a": 3, "b": None}])
        path = tmp_path / "r.jsonl"
        text = result.to_jsonl(str(path))
        assert text == '{"a":1,"b":2.5}\n{"a":3,"b":null}\n'
        assert path.read_text() == text

    def test_missing_trailing_columns_normalize(self):
        result = ExperimentResult([{"a": 1, "b": 2}, {"a": 3}])
        assert result.normalized_rows()[1] == {"a": 3, "b": None}

    def test_out_of_order_columns_rejected(self):
        result = ExperimentResult([{"a": 1, "b": 2}, {"b": 3, "a": 4}])
        with pytest.raises(SchemaError):
            result.check_schema()

    def test_non_scalar_cell_rejected(self):
        result = ExperimentResult([{"a": [1, 2]}])
        with pytest.raises(SchemaError):
            result.to_jsonl()


# -- spec expansion ---------------------------------------------------------


class TestSweepSpec:
    def test_grid_times_seeds(self):
        spec = SweepSpec.from_dict(
            {
                "name": "t",
                "targets": [
                    {
                        "experiment": "E8",
                        "grid": {"duration_ns": [1, 2], "fanin_extra": [0, 1]},
                        "seeds": [1, 2],
                    }
                ],
            }
        )
        runs = spec.expand()
        assert len(runs) == 2 * 2 * 2
        assert len({run.run_id for run in runs}) == len(runs)
        # Deterministic expansion: same spec, same order.
        assert [r.run_id for r in runs] == [r.run_id for r in spec.expand()]

    def test_seeds_dropped_for_unseeded_runner(self):
        spec = SweepSpec.from_dict(
            {"name": "t", "targets": [{"experiment": "E10", "seeds": [1, 2, 3]}]}
        )
        runs = spec.expand()
        assert len(runs) == 1 and runs[0].seed is None

    def test_unknown_experiment_and_param_rejected(self):
        with pytest.raises(SpecError):
            SweepSpec.from_dict(
                {"name": "t", "targets": [{"experiment": "E99"}]}
            ).expand()
        with pytest.raises(SpecError):
            SweepSpec.from_dict(
                {"name": "t", "targets": [{"experiment": "E10", "grid": {"nope": [1]}}]}
            ).expand()

    def test_ref_target_bypasses_registry(self):
        # an inline ``ref`` runs without a catalogue entry
        spec = SweepSpec.from_dict(
            {"name": "t", "targets": [{"experiment": "FX", "ref": FAULT_REF, "seeds": [7]}]}
        )
        runs = spec.expand()
        assert runs[0].ref == FAULT_REF and runs[0].seed == 7


# -- cache ------------------------------------------------------------------


class TestResultCache:
    def test_roundtrip_and_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run = RunSpec("E10", "repro.experiments:run_cpu_overhead", {}, None)
        key = run_key(run)
        assert cache.get(key) is None
        payload = {"rows": [{"a": 1}], "schema": ["a"], "title": "t", "duration_s": 0.1}
        assert cache.put(key, payload)
        assert cache.get(key) == payload

    def test_key_depends_on_params_and_seed(self):
        base = RunSpec("E8", "repro.experiments:run_buffer_misconfig", {}, 1)
        other_seed = RunSpec("E8", "repro.experiments:run_buffer_misconfig", {}, 2)
        other_params = RunSpec(
            "E8", "repro.experiments:run_buffer_misconfig", {"duration_ns": 1}, 1
        )
        keys = {run_key(base), run_key(other_seed), run_key(other_params)}
        assert len(keys) == 3

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run = RunSpec("E10", "repro.experiments:run_cpu_overhead", {}, None)
        key = run_key(run)
        path = cache._path(key)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.get(key) is None


# -- worker pool ------------------------------------------------------------


def _ok_worker(payload):
    return payload * 2


def _error_worker(payload):
    if payload == 2:
        raise RuntimeError("planned failure")
    return payload


def _hang_worker(payload):
    time.sleep(60)


class TestPool:
    def test_results_and_isolation(self):
        outcomes = pool.run_tasks(
            [("a", 1), ("b", 2), ("c", 3)], _error_worker, jobs=2, retries=0
        )
        assert outcomes["a"].ok and outcomes["c"].ok
        assert outcomes["b"].status == pool.ERROR
        assert "planned failure" in outcomes["b"].error

    def test_timeout_kills_and_reports(self):
        started = time.monotonic()
        outcomes = pool.run_tasks(
            [("hang", None)], _hang_worker, jobs=1, timeout_s=0.5, retries=0
        )
        assert outcomes["hang"].status == pool.TIMEOUT
        assert time.monotonic() - started < 30

    def test_retries_count_attempts(self):
        outcomes = pool.run_tasks([("b", 2)], _error_worker, jobs=1, retries=2)
        assert outcomes["b"].attempts == 3

    def test_fewer_than_one_job_is_refused(self):
        with pytest.raises(ValueError, match="jobs must be at least 1, got 0"):
            pool.run_tasks([("a", 1)], _ok_worker, jobs=0)


# -- orchestrated campaigns -------------------------------------------------


def _campaign(tmp_path, spec_dict, **kwargs):
    spec = SweepSpec.from_dict(spec_dict)
    cache = kwargs.pop("cache", None) or ResultCache(str(tmp_path / "cache"))
    out = kwargs.pop("out", None) or str(tmp_path / "out")
    kwargs.setdefault("echo", lambda line: None)
    kwargs.setdefault("timeout_s", 300.0)
    return Campaign(spec, out, cache=cache, **kwargs)


FAULT_SPEC = {
    "name": "det",
    "targets": [
        {"experiment": "E10"},
        {
            "experiment": "FAULTS",
            "ref": FAULT_REF,
            "grid": {"drop_probability": [0.02, 0.05]},
            "seeds": [5, 6],
        },
    ],
}


class TestCampaignDeterminism:
    def test_parallel_matches_serial_including_faultplan(self, tmp_path):
        report = _campaign(tmp_path, FAULT_SPEC, jobs=3).run()
        assert report.all_ok and report.total == 5

        store = CampaignStore(str(tmp_path / "out"))
        for drop_probability in (0.02, 0.05):
            for seed in (5, 6):
                serial_rows = run_faulted_incast(
                    drop_probability=drop_probability, seed=seed
                ).normalized_rows()
                run_id = RunSpec(
                    "FAULTS", FAULT_REF, {"drop_probability": drop_probability}, seed
                ).run_id
                assert store.read_run_rows(run_id) == serial_rows, run_id
        serial_e10 = (
            __import__("repro.experiments", fromlist=["run_cpu_overhead"])
            .run_cpu_overhead()
            .normalized_rows()
        )
        assert store.read_run_rows("E10") == serial_e10

    def test_rerun_is_all_cache_hits_with_identical_artifacts(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        _campaign(tmp_path, FAULT_SPEC, jobs=2, cache=cache, out=str(tmp_path / "o1")).run()
        first = {
            name: (tmp_path / "o1" / "runs" / name).read_bytes()
            for name in os.listdir(tmp_path / "o1" / "runs")
        }
        report = _campaign(
            tmp_path, FAULT_SPEC, jobs=2, cache=cache, out=str(tmp_path / "o2")
        ).run()
        assert report.cache_hits == report.total == 5
        for name, content in first.items():
            assert (tmp_path / "o2" / "runs" / name).read_bytes() == content

    def test_resume_skips_completed_runs(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        campaign = _campaign(
            tmp_path,
            {"name": "r", "targets": [{"experiment": "E10"}, {"experiment": "E11"}]},
            jobs=2,
            cache=cache,
        )
        campaign.run()
        manifest = campaign.store.load_manifest()
        # Simulate an interrupted campaign: one run never completed.
        manifest["runs"]["E11"]["status"] = "pending"
        campaign.store.save_manifest(manifest)
        report = Campaign.resume(
            str(tmp_path / "out"), cache=cache, echo=lambda line: None
        )
        assert report.all_ok and report.total == 2
        final = campaign.store.load_manifest()
        assert final["runs"]["E11"]["status"] == "ok"
        assert final["totals"]["failed"] == 0

    @pytest.mark.parametrize("damage", ["deleted", "truncated"])
    def test_resume_reruns_an_ok_run_whose_rows_are_lost(self, tmp_path, capsys, damage):
        from repro.__main__ import main

        out, cache = str(tmp_path / "c"), str(tmp_path / "cache")
        assert main(["run", "E10", "--inline", "-q", "--out", out, "--cache-dir", cache]) == 0
        rows_path = os.path.join(out, "runs", "E10.jsonl")
        with open(rows_path, "rb") as handle:
            rows = handle.read()
        if damage == "deleted":
            os.remove(rows_path)
        else:
            with open(rows_path, "wb") as handle:
                handle.write(rows[: len(rows) // 2])
        assert main(["resume", out, "--inline", "--cache-dir", cache]) == 0
        with open(rows_path, "rb") as handle:
            assert handle.read() == rows
        entry = CampaignStore(out).load_manifest()["runs"]["E10"]
        assert entry["status"] == "ok" and entry["cache_hit"]
        assert entry["claims"] and all(claim["passed"] for claim in entry["claims"])
        assert "rows hold what the claims read" not in capsys.readouterr().out

    def test_resume_reruns_an_ok_run_written_by_other_code(self, tmp_path, monkeypatch):
        from repro.campaign import cache as cache_module
        from repro.campaign import runner as runner_module

        spec = {"name": "v", "targets": [{"experiment": "E10"}]}
        assert _campaign(tmp_path, spec, use_cache=False, inline=True).run().all_ok
        executed = []
        execute_run = runner_module.execute_run
        monkeypatch.setattr(runner_module, "execute_run", lambda payload: (
            executed.append(payload["run_id"]) or execute_run(payload)))
        # An edit to any repro source file changes the code version.
        monkeypatch.setattr(cache_module, "_code_version_cache", "0123456789abcdef")
        report = Campaign.resume(str(tmp_path / "out"), use_cache=False, inline=True,
                                 echo=lambda line: None)
        assert executed == ["E10"]
        assert report.all_ok and report.manifest["code_version"] == "0123456789abcdef"

    def test_resume_keeps_an_ok_run_with_zero_rows(self, tmp_path):
        spec = {"name": "z", "targets": [{"experiment": "NONE", "ref": EMPTY_REF}]}
        assert _campaign(tmp_path, spec).run().all_ok
        report = Campaign.resume(str(tmp_path / "out"), echo=lambda line: None,
                                 cache=ResultCache(str(tmp_path / "cache")))
        assert report.all_ok and report.manifest["runs"]["NONE"]["cache_hit"] is False
        assert CampaignStore(str(tmp_path / "out")).read_run_rows("NONE") == []

    def test_failed_run_is_isolated_and_reported(self, tmp_path):
        spec = {
            "name": "f",
            "targets": [
                {"experiment": "E10"},
                {"experiment": "BAD", "ref": "tests.test_campaign:no_such_runner"},
            ],
        }
        report = _campaign(tmp_path, spec, jobs=2, retries=0).run()
        assert report.failed == 1 and report.ok == 1
        manifest = CampaignStore(str(tmp_path / "out")).load_manifest()
        assert manifest["runs"]["E10"]["status"] == "ok"
        assert manifest["runs"]["BAD"]["status"] == "failed"
        assert "no_such_runner" in manifest["runs"]["BAD"]["error"]

    def test_manifest_records_violations_and_timings(self, tmp_path):
        report = _campaign(
            tmp_path,
            {
                "name": "v",
                "targets": [
                    {"experiment": "FAULTS", "ref": FAULT_REF, "seeds": [5]}
                ],
            },
            jobs=1,
        ).run()
        assert report.all_ok
        manifest = CampaignStore(str(tmp_path / "out")).load_manifest()
        entry = manifest["runs"]["FAULTS-s5"]
        assert entry["duration_s"] > 0
        assert isinstance(entry["violations"], int)
        assert manifest["totals"]["compute_s"] >= entry["duration_s"]
        # JSONL artifact parses and matches the recorded row count.
        rows = [
            json.loads(line)
            for line in open(entry["jsonl"])
        ]
        assert len(rows) == entry["rows"]


class TestCampaignTelemetryCache:
    """An armed run is the dark run plus its artifacts, so it fills and
    hits the result cache like any other."""

    SPEC = {
        "name": "tel",
        "targets": [{"experiment": "FAULTS", "ref": FAULT_REF, "seeds": [5, 6]}],
    }

    def _run(self, tmp_path, out, cache, telemetry):
        report = _campaign(
            tmp_path, self.SPEC, jobs=2, cache=cache, out=str(tmp_path / out),
            hubs=(TELEMETRY,) if telemetry else (),
        ).run()
        assert report.all_ok and report.total == 2
        return report

    @staticmethod
    def _files(directory):
        return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    def test_armed_rerun_is_all_hits_with_identical_artifacts(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cold = self._run(tmp_path, "cold", cache, telemetry=True)
        assert cold.cache_hits == 0
        warm = self._run(tmp_path, "warm", cache, telemetry=True)
        assert warm.cache_hits == 2
        artifacts = self._files(tmp_path / "cold" / "telemetry")
        assert sorted(artifacts) == [
            "FAULTS-s5-0.telemetry.jsonl", "FAULTS-s6-0.telemetry.jsonl"]
        assert self._files(tmp_path / "warm" / "telemetry") == artifacts
        assert self._files(tmp_path / "warm" / "runs") == self._files(
            tmp_path / "cold" / "runs")

    def test_dark_and_armed_entries_are_told_apart(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        self._run(tmp_path, "dark", cache, telemetry=False)
        # A dark-filled entry carries no sessions: an armed run re-runs
        # (and overwrites it) ...
        armed = self._run(tmp_path, "armed", cache, telemetry=True)
        assert armed.cache_hits == 0
        assert (tmp_path / "armed" / "telemetry").is_dir()
        # ... and reads the rows the dark run read.
        assert self._files(tmp_path / "armed" / "runs") == self._files(
            tmp_path / "dark" / "runs")
        # A dark hit on the armed-filled entry writes no telemetry.
        dark_again = self._run(tmp_path, "dark2", cache, telemetry=False)
        assert dark_again.cache_hits == 2
        assert not (tmp_path / "dark2" / "telemetry").exists()
        assert "telemetry" not in dark_again.manifest["runs"]["FAULTS-s5"]

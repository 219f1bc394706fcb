"""The front door, ``python -m repro <verb>``: its exit-code map.

0 passed (or the verb gives no verdict), 1 the verdict failed, 2 nothing
could be judged -- said in one stderr line, with nothing run and no
directory left behind.  The artifact verbs' reader matrix lives in
``tests/test_obs.py::TestReaderClis``; each subsystem's own tests drive
its verbs through :func:`repro.__main__.main` too.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.__main__ import main


_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [os.path.dirname(os.path.dirname(repro.__file__))]
    + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def _assert_exit_2(argv, capsys, *needles):
    capsys.readouterr()
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    for needle in needles:
        assert needle in line, line


class TestNothingToJudge:
    @pytest.mark.parametrize("argv", [[], ["frob"], ["list", "--bogus"], ["gate", "--seed", "x"]],
                             ids=["no-verb", "unknown-verb", "unknown-option", "bad-value"])
    def test_usage_errors_are_one_line(self, argv, capsys):
        _assert_exit_2(argv, capsys, "python -m repro")

    @pytest.mark.parametrize("verb", ["validate", "differential"])
    def test_zero_seeds_is_no_verdict(self, verb, capsys):
        _assert_exit_2([verb, "--seeds", "0"], capsys, "nothing to check")

    def test_storm_needs_an_artifact_or_the_demo(self, capsys):
        _assert_exit_2(["storm"], capsys, "--demo")

    def test_clean_with_nothing_named(self, capsys):
        _assert_exit_2(["clean"], capsys, "nothing to clean")

    def test_clean_checks_every_dir_before_deleting_any(self, tmp_path, capsys):
        good, bad = tmp_path / "good", tmp_path / "bad"
        good.mkdir()
        (good / "manifest.json").write_text("{}")
        bad.mkdir()
        _assert_exit_2(["clean", str(good), str(bad)], capsys, str(bad), "no manifest.json")
        assert (good / "manifest.json").exists()


class TestBadSpecs:
    """A bad sweep spec is one line and exit 2 before anything runs."""

    def _refused(self, tmp_path, capsys, argv, *needles):
        out = tmp_path / "campaign"
        _assert_exit_2(["run"] + argv + ["--out", str(out), "--inline"], capsys, *needles)
        assert not out.exists()

    def test_missing_spec_file(self, tmp_path, capsys):
        self._refused(tmp_path, capsys, ["--spec", "/nonexistent.json"], "/nonexistent.json")

    def test_seeds_that_are_not_a_list_of_ints(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"targets": [{"experiment": "E1", "seeds": "abc"}]}))
        self._refused(tmp_path, capsys, ["--spec", str(spec)], "seeds", "list of integers")

    def test_unknown_parameter(self, tmp_path, capsys):
        self._refused(tmp_path, capsys, ["E1", "--param", "nosuch=1"], "nosuch")

    def test_seed_as_a_parameter_points_at_seeds(self, tmp_path, capsys):
        self._refused(tmp_path, capsys, ["E1", "--param", "seed=1"], "use --seeds")


class TestBadExecOptions:
    """``-j``, ``--timeout`` and ``--retries`` out of range are usage
    errors: one line and exit 2 before anything runs, not a run that
    hangs or reports every run FAILED."""

    @pytest.mark.parametrize("option", [["-j", "0"], ["--timeout", "0"], ["--timeout", "-1"],
                                        ["--retries", "-2"]],
                             ids=["jobs-0", "timeout-0", "timeout-negative", "retries-negative"])
    def test_refused(self, option, tmp_path, capsys):
        out = tmp_path / "campaign"
        _assert_exit_2(["run", "E7", "--no-cache", "--out", str(out)] + option,
                       capsys, option[0], "must be")
        assert not out.exists()

    def test_resume_refuses_them_too(self, tmp_path, capsys):
        _assert_exit_2(["resume", str(tmp_path), "-j", "0"], capsys, "-j/--jobs", "must be")

    def test_negative_jobs_is_refused_not_a_hang(self, tmp_path):
        out = tmp_path / "campaign"
        started = time.monotonic()
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", "E7", "-j", "-3", "--no-cache",
             "--out", str(out)], env=_ENV, capture_output=True, text=True, timeout=30)
        assert (result.returncode, result.stdout) == (2, "")
        (line,) = result.stderr.splitlines()
        assert "-j/--jobs" in line and "must be" in line
        assert time.monotonic() - started < 10
        assert not out.exists()


class TestBadArtifactFlags:
    """A numeric flag of an artifact verb that would silently change the
    verdict (``--top -3`` drops three ops, ``--storm-host-rate nan`` finds
    no incident) is a usage error: one line, exit 2, nothing read."""

    @pytest.mark.parametrize("argv", [
        ["attribute", "T.trace.jsonl", "--top", "-3"],
        ["export", "T.trace.jsonl", "--max-ops", "-1"],
        ["replay", "T.telemetry.jsonl", "--storm-host-rate", "nan"],
        ["replay", "T.telemetry.jsonl", "--storm-switch-rate", "-1"],
        ["replay", "T.telemetry.jsonl", "--storm-min-windows", "-4"],
        ["replay", "T.telemetry.jsonl", "--watermark-fraction", "0"],
    ], ids=lambda argv: argv[2])
    def test_refused(self, argv, capsys):
        _assert_exit_2(argv, capsys, argv[2], "must be")


class TestOutIsNotADirectory:
    """``run --out`` naming a file, or a path under one, is one
    ``path: reason`` line and exit 2, before any run or manifest."""

    def test_out_is_a_file(self, tmp_path, capsys):
        target = tmp_path / "file"
        target.write_text("kept")
        _assert_exit_2(["run", "E7", "--no-cache", "--out", str(target)], capsys,
                       str(target), "not a directory")
        assert target.read_text() == "kept"

    def test_out_under_a_file(self, tmp_path, capsys):
        target = tmp_path / "file"
        target.write_text("kept")
        _assert_exit_2(["run", "E7", "--no-cache", "--out", str(target / "sub")], capsys,
                       str(target / "sub") + ": ", "Not a directory")
        assert target.read_text() == "kept"


class TestDirOptionIsNotADirectory:
    """Every other DIR option is checked the same way before anything
    runs: one ``path: reason`` line and exit 2, never a traceback and
    exit 1 (fingerprint drift) after the scenario ran."""

    @pytest.mark.parametrize("verb", [
        ["gate", "single_flow", "--trace"],
        ["gate", "single_flow", "--telemetry"],
        ["validate", "--seeds", "1", "--telemetry"],
        ["validate", "--seeds", "1", "--artifacts"],
        ["differential", "--seeds", "1", "--artifacts"],
        ["mutation-check", "--artifacts"],
        ["storm", "--demo", "--out"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_refused_before_anything_runs(self, verb, under, tmp_path, capsys):
        target = tmp_path / "file"
        target.write_text("kept")
        path = target / "sub" if under else target
        reason = "Not a directory" if under else "exists and is not a directory"
        _assert_exit_2(verb + [str(path)], capsys, str(path) + ": ", reason)
        assert target.read_text() == "kept"


def test_importing_the_front_door_loads_no_subsystem():
    """Each verb imports its subsystem in its handler, and the package
    root resolves its re-exports lazily: ``--help`` loads two modules."""
    script = (
        "import sys\n"
        "import repro.__main__\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], env=_ENV, check=True,
                            capture_output=True, text=True, timeout=60)
    assert result.stdout.strip() == "['repro', 'repro.__main__']"

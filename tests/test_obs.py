"""Tests for the observability spine (``repro.obs`` + ``repro.artifact``).

1. **Hub contract** -- one class, parametrised over both hubs: the
   arm / maybe_attach / disarm / drain lifecycle, and a completion
   callback that disarms the plane mid-run, a second hand-started
   session refused.
2. **Reader robustness** -- every byte-prefix truncation of a real
   artifact reads as a shorter record list or raises ``ArtifactError``;
   every artifact-reading verb of ``python -m repro`` answers bad input
   with exit status 2 and one ``path:line: reason`` line.
3. **Collect path** -- ``run --telemetry --trace`` feeds both planes in
   one run.
4. **Dark imports** -- the module sets perfbench's workloads import
   load neither plane nor ``networkx``.
5. **Armed == dark** -- every fast pinned scenario, inside either hub's
   ``collect`` and inside both, reproduces its ``BASELINE.json`` pin
   (CI's armed-path gate runs the slow ones).
"""

import subprocess
import sys

import pytest

from repro import SeededRng, connect_qp_pair, post_send, single_switch
from repro.__main__ import main
from repro.artifact import ArtifactError, read_jsonl, write_jsonl
from repro.experiments.catalog import CATALOG, CatalogEntry
from repro.experiments.result import ExperimentResult
from repro.obs import HUBS, TELEMETRY, TRACE
from repro.telemetry import TelemetrySession
from repro.tracing import TraceSession
from tests.test_bench import FAST_SCENARIOS, assert_reproduces_pin

MS = 1_000_000


@pytest.fixture(autouse=True)
def _hub_hygiene():
    """No test may leak an armed hub or live session into the suite."""
    yield
    for hub in HUBS:
        hub.disarm()
        hub.drain()
        assert not hub.enabled and hub.session is None


@pytest.fixture(params=HUBS, ids=lambda hub: hub.name)
def hub(request):
    return request.param


def _send(on_complete=None, size_bytes=4096):
    """Boot a two-host rack, complete one SEND, return the fabric."""
    topo = single_switch(n_hosts=2).boot()
    qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], SeededRng(1))
    done = []

    def complete(wr, t_ns):
        done.append(t_ns)
        if on_complete is not None:
            on_complete()

    post_send(qp, size_bytes, on_complete=complete)
    topo.sim.run(until=topo.sim.now + 2 * MS)
    assert done, "the SEND never completed"
    return topo


# -- 1. hub contract ---------------------------------------------------------


class TestHubContract:
    def test_arming_alone_leaves_the_probes_dark(self, hub):
        config = hub.arm()
        assert hub.armed is config
        assert hub.enabled is False and hub.session is None
        hub.disarm()
        assert hub.armed is None
        assert hub.drain() == []

    def test_maybe_attach_closes_the_previous_session(self, hub):
        hub.arm()
        single_switch(n_hosts=2).boot()
        first = hub.session
        assert hub.enabled and first is not None
        single_switch(n_hosts=2).boot()
        assert hub.session is not first
        assert hub.completed == [first]

    def test_disarm_closes_the_live_session(self, hub):
        hub.arm()
        single_switch(n_hosts=2).boot()
        live = hub.session
        hub.disarm()
        assert hub.enabled is False and hub.session is None
        assert hub.completed == [live]

    def test_drain_empties_completed(self, hub):
        hub.arm()
        _send()
        (records,) = hub.drain()
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == hub.schema
        assert hub.completed == [] and hub.drain() == []

    def test_unarmed_boot_attaches_nothing(self, hub):
        assert hub.maybe_attach(single_switch(n_hosts=2).fabric) is None
        single_switch(n_hosts=2).boot()
        assert hub.enabled is False and hub.completed == []

    def test_both_hubs_armed_attach_both(self):
        for each in HUBS:
            each.arm()
        _send()
        assert all(each.enabled for each in HUBS)
        assert [len(each.drain()) for each in HUBS] == [1, 1]

    def test_a_second_hand_started_session_is_refused(self, hub):
        # maybe_attach stops the previous session first; a session started
        # by hand beside a live one would steal its hooks silently.
        new_session = {TELEMETRY: TelemetrySession, TRACE: TraceSession}[hub]
        live = new_session(single_switch(n_hosts=2).boot().fabric).start()
        other = new_session(single_switch(n_hosts=2).boot().fabric)
        with pytest.raises(RuntimeError, match="already active"):
            other.start()
        assert hub.session is live
        live.stop()
        assert hub.completed == [live]

    def test_callback_that_disarms_lets_the_run_finish(self, hub, tmp_path):
        # A probe pair brackets the receive handler; the handler runs the
        # completion callback, so the second probe must re-read the flag.
        hub.arm()
        _send(on_complete=hub.disarm)
        assert hub.enabled is False
        (path,) = hub.write_artifacts(hub.drain(), str(tmp_path), "disarmed")
        assert hub.read_jsonl(path)[0]["schema"] == hub.schema

    def test_collect_disarms_and_drains_when_the_body_raises(self, hub, tmp_path):
        with pytest.raises(ZeroDivisionError):
            with hub.collect("boom", str(tmp_path), "boom") as collection:
                single_switch(n_hosts=2).boot()
                1 / 0
        assert hub.armed is None and not hub.enabled and hub.completed == []
        assert len(collection.sessions) == 1
        assert collection.paths == [] and list(tmp_path.iterdir()) == []


# -- 2. reader robustness ----------------------------------------------------


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One small artifact per plane from the same run: hub -> path."""
    out = str(tmp_path_factory.mktemp("artifacts"))
    with TELEMETRY.collect("small", out, "small") as telemetry:
        with TRACE.collect("small", out, "small") as trace:
            _send()
    return {TELEMETRY: telemetry.paths[0], TRACE: trace.paths[0]}


class TestReader:
    def test_every_truncation_is_a_prefix_or_an_artifact_error(
        self, hub, artifacts, tmp_path
    ):
        with open(artifacts[hub], "rb") as handle:
            data = handle.read()
        full = hub.read_jsonl(artifacts[hub])
        path = str(tmp_path / "cut.jsonl")
        shorter = errors = 0
        for cut in range(len(data)):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            try:
                records = hub.read_jsonl(path)
            except ArtifactError as error:
                assert error.path == path and str(error).startswith(path + ":")
                errors += 1
            else:
                assert records == full[: len(records)]
                shorter += 1
        # Cuts on a line boundary read clean, cuts inside a line do not.
        assert shorter >= len(full) - 1 and errors > shorter

    def test_error_names_path_and_line(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as handle:
            handle.write('{"type": "meta", "schema": "repro-telemetry/1"}\n')
            handle.write('\n{"type": "samp')
        with pytest.raises(ArtifactError) as info:
            TELEMETRY.read_jsonl(path)
        assert (info.value.path, info.value.line) == (path, 3)
        assert str(info.value).startswith("%s:3: " % path)

    @pytest.mark.parametrize("text", ["[1, 2]\n", "3\n", '"meta"\n', "\xff\xfe\n"])
    def test_non_object_lines_are_rejected(self, text, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ArtifactError):
            read_jsonl(str(path))

    def test_writer_sorts_keys(self, tmp_path):
        path = write_jsonl([{"b": 1, "a": {"d": 2, "c": 3}}], str(tmp_path / "w.jsonl"))
        with open(path) as handle:
            assert handle.read() == '{"a": {"c": 3, "d": 2}, "b": 1}\n'


def _bad_inputs(tmp_path, good, unknown_kind=None):
    """name -> path of each input no verb can judge, made from ``good``:
    missing, truncated, corrupt, empty, and one of an unknown kind."""
    with open(good, "rb") as handle:
        data = handle.read()
    cases = {"missing": str(tmp_path / "nope.jsonl"),
             "unknown-kind": unknown_kind or write_jsonl(
                 [{"sends": 1}], str(tmp_path / "rows.jsonl"))}
    for name, content in (
        ("truncated", data[: len(data) - 7]),
        ("corrupt", data[:40] + b"\x00}{" + data[40:]),
        ("empty", b""),
    ):
        cases[name] = str(tmp_path / (name + ".jsonl"))
        with open(cases[name], "wb") as handle:
            handle.write(content)
    return cases


def _assert_one_line_exit_2(argv, path, capsys):
    capsys.readouterr()
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(path + ":"), line


class TestReaderClis:
    """Every path-reading verb of ``python -m repro`` x {missing, empty,
    truncated, corrupt, unknown kind}, cut from each plane's artifact."""

    @pytest.mark.parametrize("command", ["summarize", "replay", "export"])
    def test_telemetry_cli(self, command, artifacts, tmp_path, capsys):
        for path in _bad_inputs(tmp_path, artifacts[TELEMETRY]).values():
            _assert_one_line_exit_2([command, path], path, capsys)

    @pytest.mark.parametrize("command", ["summarize", "attribute", "storm", "export"])
    def test_tracing_cli(self, command, artifacts, tmp_path, capsys):
        for path in _bad_inputs(tmp_path, artifacts[TRACE]).values():
            _assert_one_line_exit_2([command, path], path, capsys)

    def test_tracing_export_window_from_bad_telemetry(self, artifacts, tmp_path, capsys):
        bad = _bad_inputs(tmp_path, artifacts[TELEMETRY])
        for path in list(bad.values()) + [artifacts[TRACE]]:
            argv = ["export", artifacts[TRACE], "--out", str(tmp_path / "out.json"),
                    "--window-from-telemetry", path]
            _assert_one_line_exit_2(argv, path, capsys)

    def test_pingmesh_cli(self, artifacts, tmp_path, capsys):
        probes = write_jsonl(
            [{"t_ns": 5, "src": "H0", "dst": "H1", "rtt_ns": 9000, "error": None}] * 3,
            str(tmp_path / "probes.jsonl"),
        )
        assert main(["pingmesh", probes]) == 0
        for path in _bad_inputs(tmp_path, probes, artifacts[TELEMETRY]).values():
            _assert_one_line_exit_2(["pingmesh", path], path, capsys)

    @pytest.mark.parametrize("argv,plane", [
        (["export", "--format", "chrome"], TELEMETRY),
        (["attribute"], TELEMETRY),
        (["storm"], TELEMETRY),
        (["replay", "--original"], TELEMETRY),
        (["export", "--max-ops", "3"], TELEMETRY),
        (["export", "--format", "prom"], TRACE),
        (["replay"], TRACE),
    ], ids=lambda value: getattr(value, "name", None) or "-".join(value))
    def test_a_verb_given_the_wrong_kind_is_exit_2(self, argv, plane, artifacts, capsys):
        path = artifacts[plane]
        _assert_one_line_exit_2(argv[:1] + [path] + argv[1:], path, capsys)

    def test_summarize_reads_every_artifact_before_printing(self, artifacts, tmp_path, capsys):
        for path in _bad_inputs(tmp_path, artifacts[TELEMETRY]).values():
            _assert_one_line_exit_2(["summarize", artifacts[TRACE], path], path, capsys)

    def test_summarize_reads_either_plane(self, artifacts, capsys):
        assert main(["summarize", artifacts[TELEMETRY], artifacts[TRACE]]) == 0
        out = capsys.readouterr().out
        assert "telemetry artifact: small" in out and "trace small:" in out


# -- 3. collect path ---------------------------------------------------------


def run_tiny_experiment():
    """A catalogue-shaped runner that boots one fabric (see below)."""
    _send()
    return ExperimentResult([{"sends": 1}])


class TestExperimentsCli:
    def test_both_directories_get_their_artifacts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(
            CATALOG, "T0",
            CatalogEntry("T0", "run_tiny_experiment", "one SEND on one rack",
                         ref="tests.test_obs:run_tiny_experiment"),
        )
        assert main(["run", "T0", "--inline", "--no-cache", "--telemetry", "--trace",
                     "--out", str(tmp_path)]) == 0
        assert [p.name for p in (tmp_path / "telemetry").iterdir()] == ["T0-0.telemetry.jsonl"]
        assert [p.name for p in (tmp_path / "trace").iterdir()] == ["T0-0.trace.jsonl"]
        TELEMETRY.read_jsonl(str(tmp_path / "telemetry" / "T0-0.telemetry.jsonl"))
        TRACE.read_jsonl(str(tmp_path / "trace" / "T0-0.trace.jsonl"))
        assert "sends" in capsys.readouterr().out  # the run's table


# -- 4. dark imports ---------------------------------------------------------

#: What each perfbench workload imports before it builds anything.
_WORKLOAD_IMPORTS = (
    "repro.sim",
    "repro.topo, repro.experiments.common",
    "repro.topo, repro.rdma, repro.dcqcn, repro.tcp, repro.workloads",
    "repro.flowsim, repro.workloads",
)


@pytest.mark.parametrize("modules", _WORKLOAD_IMPORTS)
def test_a_dark_run_imports_no_plane(modules):
    script = (
        "import sys\n"
        "import %s\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'"
        " or m.startswith(('repro.telemetry', 'repro.tracing')))\n"
        "assert not loaded, loaded\n"
        "from repro.obs import HUBS\n"
        "assert all(not h.enabled and h.armed is None for h in HUBS)\n"
    ) % modules
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


# -- 5. armed == dark --------------------------------------------------------


@pytest.mark.parametrize(
    "armed", [(TELEMETRY,), (TRACE,), HUBS],
    ids=lambda hubs: "+".join(each.name for each in hubs))
@pytest.mark.parametrize("name", FAST_SCENARIOS)
def test_an_armed_run_is_the_dark_run(name, armed):
    assert_reproduces_pin(name, hubs=armed)

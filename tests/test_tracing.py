"""Tests for the causal tracing plane (``repro.tracing``).

Mirrors the structure of tests/test_telemetry.py for its sibling plane:

1. **Dark-path purity** -- the hub starts dark, and because a trace
   session schedules no events and draws no RNG, a pinned scenario
   reproduces its ``benchmarks/BASELINE.json`` pin while *armed* (the
   dark run is ``tests/test_bench.py``'s).
2. **Exact-sum attribution** -- every completed op's FCT decomposes
   into the seven components with zero residual on the canonical bench
   scenarios (the ISSUE's acceptance invariant).
3. **Sampling** -- deterministic, seed-keyed, rate-respecting.
4. **Pause causality end to end** -- the §4.3 storm experiment, traced,
   yields a DAG whose DCFIT-style initial trigger is the broken NIC.
5. **CLI + export** -- summarize/attribute/storm/export/pingmesh
   subcommands run over real artifacts; Chrome trace export and
   telemetry-incident windowing behave.
6. **Interop** -- pingmesh probes traced like any op attribute exactly.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro import tracing
from repro.bench.scenarios import SCENARIOS
from repro.obs import TRACE as HUB
from repro.tracing.causality import StormDag
from repro.tracing.session import TraceSession
from tests.test_bench import assert_reproduces_pin

pytestmark = pytest.mark.tracing


MS = 1_000_000


@pytest.fixture(autouse=True)
def _hub_hygiene():
    """No test may leak an armed hub or live session into the suite."""
    yield
    tracing.disarm()
    tracing.drain()
    assert not HUB.enabled and HUB.session is None


def _trace_scenario(name, seed=1, config=None):
    """Run one bench scenario armed; return (run, artifact records)."""
    tracing.arm(config or tracing.TraceConfig(label="test:%s" % name))
    try:
        run = SCENARIOS[name].run(seed=seed)
    finally:
        tracing.disarm()
    artifacts = tracing.drain()
    assert len(artifacts) == 1
    return run, artifacts[0]


# -- 1. dark-path purity -----------------------------------------------------


class TestDarkPath:
    def test_hub_starts_dark(self):
        assert HUB.enabled is False
        assert HUB.session is None
        assert HUB.armed is None

    @pytest.mark.parametrize("name", ("single_flow", "pause_storm"))
    def test_armed_fingerprints_still_identical(self, name):
        # pause_storm is the one slow scenario tier-1 runs armed.
        assert_reproduces_pin(name, hubs=(HUB,))


# -- 2. exact-sum attribution ------------------------------------------------


class TestExactSum:
    @pytest.mark.parametrize("name", ("single_flow", "incast_tor", "pause_storm"))
    def test_components_tile_the_fct(self, name):
        _run, records = _trace_scenario(name)
        attributions = tracing.attribute_records(records)
        complete = [a for a in attributions if a["complete"]]
        assert complete, "scenario %r completed no attributable op" % name
        for attribution in complete:
            total = sum(attribution[c] for c in tracing.COMPONENTS)
            assert total == attribution["fct_ns"], (
                "exact-sum violated for %s wr %d: components %d != FCT %d"
                % (attribution["qp"], attribution["wr_id"],
                   total, attribution["fct_ns"])
            )
            assert attribution["residual_ns"] == 0
        # Incomplete ops are only ever mid-flight ones (run stopped).
        for attribution in attributions:
            if not attribution["complete"]:
                assert "never completed" in attribution["reason"]

    def test_pause_component_appears_under_pfc(self):
        _run, records = _trace_scenario("pause_storm")
        attributions = tracing.attribute_records(records)
        agg = tracing.aggregate(attributions)
        assert agg["pause_ns"] > 0, (
            "the pause_storm scenario attributed no FCT time to PFC stalls"
        )
        shares = [agg[c.replace("_ns", "_share")] for c in tracing.COMPONENTS]
        assert abs(sum(shares) - 1.0) < 1e-9

    def test_aggregate_on_empty_is_zeroed(self):
        agg = tracing.aggregate([])
        assert agg["ops"] == 0 and agg["fct_total_ns"] == 0
        assert agg["pause_share"] == 0.0


# -- 3. sampling -------------------------------------------------------------


class _StubSession:
    def __init__(self, rate, seed):
        self.config = tracing.TraceConfig(sample_rate=rate, sample_seed=seed)


class TestSampling:
    def _picks(self, rate, seed, n=2000):
        stub = _StubSession(rate, seed)
        return {
            wr_id
            for wr_id in range(n)
            if TraceSession._sampled(stub, 5, wr_id)
        }

    def test_deterministic_across_calls(self):
        assert self._picks(0.25, 7) == self._picks(0.25, 7)

    def test_seed_changes_the_sample(self):
        assert self._picks(0.25, 7) != self._picks(0.25, 8)

    def test_rate_is_roughly_honoured(self):
        fraction = len(self._picks(0.25, 7)) / 2000
        assert 0.15 < fraction < 0.35

    def test_extremes(self):
        assert len(self._picks(1.0, 0)) == 2000
        assert len(self._picks(0.0, 0)) == 0

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            tracing.TraceConfig(sample_rate=1.5)

    def test_sampled_out_ops_are_counted(self):
        _run, records = _trace_scenario(
            "incast_tor",
            config=tracing.TraceConfig(sample_rate=0.25, sample_seed=3),
        )
        summary = tracing.summary_of(records)
        assert summary["ops_sampled_out"] > 0
        assert summary["ops_traced"] + summary["ops_sampled_out"] > 0


# -- 4. pause causality end to end -------------------------------------------


@pytest.fixture(scope="module")
def storm_trace():
    """The §4.3 storm experiment run once with tracing armed.

    Returns the drained record lists -- one per experiment leg."""
    from repro.experiments.storm import run_storm

    tracing.arm(tracing.TraceConfig(label="test-storm"))
    try:
        run_storm(seed=1)
    finally:
        tracing.disarm()
    artifacts = tracing.drain()
    assert artifacts, "storm run attached no trace session"
    return artifacts


def _storm_dag(records):
    return tracing.build_dag(records, tracing.attribute_records(records))


class TestStormCausality:
    def test_artifact_shape(self, storm_trace):
        for records in storm_trace:
            assert records[0]["type"] == "meta"
            assert records[0]["schema"] == "repro-trace/1"
            assert records[-1]["type"] == "summary"
            json.dumps(records)  # artifact must be JSON-serializable

    def test_initial_trigger_is_the_broken_nic(self, storm_trace):
        # The ISSUE's acceptance check: the DAG root names the injected
        # trigger -- P0T0-S0's NIC with its rx pipeline broken.
        triggers = []
        for records in storm_trace:
            dag = _storm_dag(records)
            trigger = dag.initial_trigger()
            if trigger is not None:
                triggers.append(trigger)
        broken = [t for t in triggers if t["trigger"] == "rx_pipeline_broken"]
        assert broken, "no trace leg rooted its DAG at the broken NIC"
        assert {t["device"] for t in broken} == {"P0T0-S0.nic"}
        assert all(t["device_kind"] == "nic" for t in broken)

    def test_storm_tree_propagates_downstream(self, storm_trace):
        best = max(
            (_storm_dag(records) for records in storm_trace),
            key=lambda dag: (
                0
                if dag.initial_trigger() is None
                else dag.descendant_count(dag.initial_trigger()["id"])
            ),
        )
        trigger = best.initial_trigger()
        assert trigger is not None
        assert best.descendant_count(trigger["id"]) >= 1
        # Edges point cause -> effect, so the trigger appears as a cause.
        assert any(cause == trigger["id"] for cause, _ in best.edges)

    def test_render_names_the_trigger(self, storm_trace):
        for records in storm_trace:
            dag = _storm_dag(records)
            if dag.initial_trigger() is None:
                continue
            text = tracing.render_text(dag, max_trees=4)
            assert "initial trigger:" in text
            assert dag.initial_trigger()["device"] in text
            return
        pytest.fail("no leg produced a renderable DAG")

    def test_hub_is_dark_after_drain(self, storm_trace):
        assert HUB.enabled is False
        assert HUB.session is None
        assert HUB.completed == []

    def test_cycle_reported_not_rooted(self):
        dag = tracing.build_dag([_pause_node(0, [1]), _pause_node(1, [0])])
        assert dag.roots == []
        assert dag.cyclic == [0, 1]
        assert dag.initial_trigger() is None
        assert "CYCLE" in tracing.render_text(dag)


class _ScanDag(StormDag):
    """``children()`` as it was before the cause index: a scan of every
    node on every call.  The reference for the indexed one."""

    def children(self, node_id):
        return sorted(
            node["id"] for node in self.nodes.values() if node_id in node["causes"]
        )


def _pause_node(node_id, causes, device="S0", trigger="ingress-xoff", start_ns=0):
    return {
        "type": "pause_node", "id": node_id, "device": device,
        "port": "p%d" % node_id, "device_kind": "switch", "kind": "switch-pg",
        "trigger": trigger, "priority": 3, "start_ns": start_ns, "end_ns": None,
        "emissions": 1, "occupancy_bytes": 0, "threshold_bytes": 0,
        "causes": causes,
    }


@st.composite
def pause_node_records(draw, max_nodes=12):
    """``pause_node`` records, in any order, whose causes repeat, dangle
    (ids past the last node) and -- unless the draw is acyclic -- form
    cycles."""
    n_nodes = draw(st.integers(0, max_nodes))
    acyclic = draw(st.booleans())
    records = []
    for node_id in range(n_nodes):
        # Acyclic draws only point at earlier nodes or past the last.
        top = node_id - 1 if acyclic else n_nodes + 2
        causes = draw(st.lists(
            st.integers(-1, top).map(lambda i: n_nodes + 1 if i < 0 else i),
            max_size=4,
        ))
        records.append(_pause_node(
            node_id, causes,
            device=draw(st.sampled_from(["S0", "S1", "H0.nic"])),
            trigger=draw(st.sampled_from(["ingress-xoff", "rx_pipeline_broken"])),
            start_ns=draw(st.integers(0, 4)),
        ))
    return draw(st.permutations(records))


class TestChildrenIndex:
    @given(records=pause_node_records())
    @settings(max_examples=200, deadline=None)
    def test_index_answers_what_the_scan_answers(self, records):
        dag = tracing.build_dag(records)
        scan = _ScanDag(dag.nodes, dag.roots, dag.cyclic, dag.victims)
        for node_id in range(-1, len(records) + 3):
            assert dag.children(node_id) == scan.children(node_id)
            assert dag.descendant_count(node_id) == scan.descendant_count(node_id)
        assert dag.initial_trigger() == scan.initial_trigger()
        for max_trees in (None, 1, 8):
            assert (tracing.render_text(dag, max_trees)
                    == tracing.render_text(scan, max_trees))

    def test_a_cause_listed_twice_is_one_child(self):
        dag = tracing.build_dag([_pause_node(0, []), _pause_node(1, [0, 0, 7])])
        assert dag.children(0) == [1]
        assert dag.children(7) == [1]  # a cause that is not a node
        assert dag.descendant_count(0) == 1


# -- 5. CLI + export ---------------------------------------------------------


@pytest.fixture(scope="module")
def storm_artifact_path(storm_trace, tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    paths = tracing.write_artifacts(storm_trace, str(out), "storm")
    best = max(
        range(len(storm_trace)),
        key=lambda i: sum(
            1 for r in storm_trace[i] if r.get("type") == "pause_node"
        ),
    )
    return paths[best]


class TestCliAndExport:
    def test_summarize_renders(self, storm_artifact_path, capsys):
        assert main(["summarize", storm_artifact_path]) == 0
        out = capsys.readouterr().out
        assert "ops" in out and "pauses" in out

    def test_attribute_lists_components(self, storm_artifact_path, capsys):
        assert main(
            ["attribute", storm_artifact_path, "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        for component in ("source", "queue", "pause", "serialization"):
            assert component in out

    def test_storm_renders_dag(self, storm_artifact_path, capsys):
        assert main(["storm", storm_artifact_path]) == 0
        out = capsys.readouterr().out
        assert "ROOT" in out or "no pause episodes" in out

    def test_storm_json(self, storm_artifact_path, capsys):
        assert main(["storm", storm_artifact_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"roots", "cyclic", "nodes", "victims"}

    def test_chrome_export(self, storm_artifact_path, tmp_path, capsys):
        out_path = str(tmp_path / "trace.json")
        assert main(
            ["export", storm_artifact_path, "--format", "chrome", "--out", out_path]
        ) == 0
        with open(out_path) as handle:
            trace = json.load(handle)
        events = trace["traceEvents"]
        assert any(e["cat"] == "op" for e in events)
        assert any(e["cat"] == "pause" for e in events)

    def test_windows_from_telemetry_and_filter(self):
        telemetry_records = [
            {"type": "meta"},
            {"type": "incident", "kind": "pause_storm", "device": "T0",
             "start_ns": 5 * MS, "end_ns": 7 * MS, "severity": "critical"},
        ]
        windows = tracing.windows_from_telemetry(
            telemetry_records, pad_ns=1 * MS
        )
        assert windows == [{"kind": "pause_storm", "device": "T0",
                            "start_ns": 4 * MS, "end_ns": 8 * MS}]
        records = [
            {"type": "meta"},
            {"type": "op", "posted_ns": 1 * MS, "completed_ns": 2 * MS},
            {"type": "op", "posted_ns": 5 * MS, "completed_ns": 6 * MS},
            {"type": "event", "t_ns": 9 * MS},
            {"type": "summary"},
        ]
        kept = tracing.filter_window(records, 4 * MS, 8 * MS)
        assert [r["type"] for r in kept] == ["meta", "op", "summary"]
        assert kept[1]["posted_ns"] == 5 * MS

    def test_pingmesh_cli(self, tmp_path, capsys):
        path = str(tmp_path / "probes.jsonl")
        with open(path, "w") as handle:
            for rtt in (10_000, 20_000, 30_000):
                handle.write(json.dumps(
                    {"t_ns": rtt, "src": "H0", "dst": "H1",
                     "rtt_ns": rtt, "error": None}) + "\n")
            handle.write(json.dumps(
                {"t_ns": 99, "src": "H0", "dst": "H2",
                 "rtt_ns": None, "error": "timeout"}) + "\n")
        assert main(["pingmesh", path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["probes"] == 4 and summary["ok"] == 3
        assert summary["errors"] == {"timeout": 1}
        assert summary["rtt_us"]["p50"] == 20.0


# -- 6. interop --------------------------------------------------------------


class TestInterop:
    def test_pingmesh_probes_attribute_exactly(self):
        from repro.monitoring import Pingmesh
        from repro.sim import SeededRng
        from repro.topo import single_switch

        tracing.arm(tracing.TraceConfig(label="test-pingmesh"))
        try:
            topo = single_switch(n_hosts=2).boot()
            pingmesh = Pingmesh(topo.sim, SeededRng(2, "pm"), interval_ns=1 * MS)
            pingmesh.add_pair(topo.hosts[0], topo.hosts[1])
            pingmesh.start()
            topo.sim.run(until=topo.sim.now + 10 * MS)
            pingmesh.stop()
        finally:
            tracing.disarm()
        (records,) = tracing.drain()
        attributions = [
            a for a in tracing.attribute_records(records) if a["complete"]
        ]
        assert len(attributions) >= 5
        rtts = sorted(pingmesh.rtts_ns())
        for attribution in attributions:
            total = sum(attribution[c] for c in tracing.COMPONENTS)
            assert total == attribution["fct_ns"]
            assert attribution["fct_ns"] in rtts

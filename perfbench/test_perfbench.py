"""Tests of the benchmark itself.  Run with ``pytest perfbench -q``; tier-1
(``testpaths = ["tests"]``) does not collect this file."""

import json
import subprocess
import sys

import pytest

import run

run.use_checkout_source()

import layers  # noqa: E402
import measure  # noqa: E402
import probes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _probe(name):
    return next(p for p in probes.PROBES if p.name == name)


def _tiny(workload, seed, kind="plain"):
    repeat = measure.run_repeat(WORKLOADS[workload], seed, tiny=True, kind=kind)
    assert not repeat.problems, repeat.problems
    return repeat


# -- attribution -------------------------------------------------------------


def test_file_layer_map():
    assert layers.layer_of_repro_path("switch/pfc.py") == "switch.buffer"
    assert layers.layer_of_repro_path("switch/ecn.py") == "switch.pipeline"
    assert layers.layer_of_repro_path("switch/ecmp.py") == "switch.forwarding"
    assert layers.layer_of_repro_path("net/link.py") == "net.link"
    assert layers.layer_of_repro_path("timely/engine.py") == "dcqcn"
    assert layers.layer_of_repro_path("faults/invariants.py") == "obs"
    assert layers.layer_of_repro_path("experiments/common.py") == "other"
    assert layers.layer_of_repro_path("switch/new_file.py") == "other"
    assert layers.layer_of_file(layers.__file__) == "driver"
    assert layers.layer_of_file("~") is None
    assert set(layers.FILE_LAYERS.values()) | set(layers.DIR_LAYERS.values()) <= set(layers.LAYERS)


def test_builtins_are_charged_to_their_callers():
    port = ("/x/src/repro/net/port.py", 10, "enqueue")
    engine = ("/x/src/repro/sim/engine.py", 20, "schedule")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        port: (1, 1, 2.0, 3.0, {}),
        engine: (1, 1, 1.0, 2.0, {}),
        # stats row: (cc, nc, tt, ct, callers); callers row: (nc, cc, tt, ct)
        append: (4, 4, 2.0, 2.0, {port: (3, 3, 1.5, 1.5), engine: (1, 1, 0.5, 0.5)}),
        orphan: (1, 1, 0.5, 0.5, {}),
    }
    attribution, unmapped = layers.attribute(stats)
    assert attribution["net.port"]["seconds"] == pytest.approx(3.5)
    assert attribution["sim"]["seconds"] == pytest.approx(1.5)
    assert unmapped == pytest.approx(0.5 / 5.5)
    assert sum(row["share"] for row in attribution.values()) + unmapped == pytest.approx(1.0)


def test_attribution_of_a_tiny_clos_bulk_is_complete():
    repeat = _tiny("clos_bulk", 1, kind="profile")
    attribution, unmapped = layers.attribute(repeat.stats)
    assert sum(row["share"] for row in attribution.values()) + unmapped == pytest.approx(1.0)
    assert unmapped < 0.02
    fabric = sum(
        attribution[name]["share"]
        for name in ("net.port", "switch.pipeline", "switch.buffer", "switch.forwarding")
    )
    assert fabric > 0.3
    assert attribution["flowsim"]["share"] == 0.0


# -- workloads ---------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_runs_repeat_per_seed_and_differ_across_seeds(name):
    first, again, other = _tiny(name, 1), _tiny(name, 1), _tiny(name, 2)
    assert first.outcome.fingerprint == again.outcome.fingerprint
    assert first.outcome.counts == again.outcome.counts
    assert len(first.slices) == len(again.slices)
    assert first.outcome.fingerprint != other.outcome.fingerprint
    assert first.outcome.units > 0


def test_audited_repeat_matches_the_plain_fingerprint():
    plain = _tiny("rack_rpc", 3)
    audited = _tiny("rack_rpc", 3, kind="audit")
    assert audited.outcome.fingerprint == plain.outcome.fingerprint


def test_engine_timers_event_count_is_closed_form():
    workload = WORKLOADS["engine_timers"]
    expected = set()
    for seed in (1, 2, 3):
        ctx = workload.build(seed, tiny=True)
        workload.wire(ctx)
        for _ in workload.slices(ctx):
            pass
        assert ctx.sim.dispatches == workload.expected_events(ctx)
        expected.add(workload.expected_events(ctx))
    assert len(expected) == 1  # the same work whatever the seed


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_import_list_covers_what_the_workload_loads(name):
    """``setup_s`` times the import of ``workload.modules`` in a fresh
    interpreter; nothing the job needs may be left to a lazy import."""
    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    head = "import sys; sys.path[:0] = [%r, %r]; " % (run.SRC, run.HERE)
    listed = head + "import %s; " % ", ".join(WORKLOADS[name].modules) + loaded
    used = head + (
        "import measure; from workloads import WORKLOADS; "
        "measure.run_repeat(WORKLOADS[%r], 1, tiny=True); " % name
    ) + loaded

    def modules(code):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=120)
        return set(json.loads(done.stdout.replace("'", '"')))

    assert modules(used) <= modules(listed)


# -- probes ------------------------------------------------------------------


def test_buffer_probe_crosses_xoff_and_xon():
    batch, witness = _probe("probe.switch.buffer.admit_release_ns").make()
    batch(2000)()
    assert witness["xoff"] >= 1
    assert witness["xon"] >= 1


def test_cold_forwarding_probe_sees_distinct_five_tuples():
    batch, witness = _probe("probe.switch.forwarding.decide_cold_ns").make()
    batch(5000)()
    assert witness["distinct"] == witness["n"] == 5000
    assert all(witness["spread"])  # every ECMP next hop was chosen


def test_warm_forwarding_probe_forwards_everything():
    batch, witness = _probe("probe.switch.forwarding.decide_ns").make()
    batch(640)()
    assert witness["forwarded"] == 640


def test_far_timer_probe_lands_beyond_the_near_window():
    from repro.sim import Simulator

    batch, witness = _probe("probe.sim.far_timer_ns").make()
    batch(500)()
    assert witness["pending_at_start"] == 64
    sim = Simulator()
    sim.schedule1(witness["min_delay_ns"], lambda _arg: None, None)
    overflow = getattr(sim, "_overflow", None)
    if overflow is None:
        pytest.skip("this engine has no overflow heap to land in")
    assert len(overflow) == 1


def test_pipeline_probe_delivers_every_frame():
    batch, witness = _probe("probe.switch.pipeline.handle_packet_ns").make()
    batch(200)()
    assert witness["received"] == witness["n"] == 200
    assert witness["drops"] == 0


def test_rdma_probes_complete_their_messages():
    batch, witness = _probe("probe.rdma.segment_ack_ns").make()
    batch(160)()
    assert witness == {"completed": 1, "acks": 10, "data_pkts": 160}
    batch, witness = _probe("probe.rdma.post_complete_ns").make()
    batch(50)()
    assert witness["completed"] == witness["n"] == 50


def test_every_probe_runs():
    for probe in probes.PROBES:
        value, _witness = probes.run_probe(probe, measure.steady, loop_seconds=0.002, loops=2)
        assert value > 0, probe.name


# -- the declared contract ---------------------------------------------------


def test_selftest_passes():
    assert run.main(["--selftest"]) == 0

"""Regression gate for ``repro.bench``, the determinism gate.

Two jobs:

1. **Determinism pinning** -- every scenario run here must reproduce the
   fingerprint, event count and packet count recorded in
   ``benchmarks/BASELINE.json``, through the same
   :func:`repro.bench.check` the CLI and CI call.  The pins are the
   proof that an optimization changed speed and nothing else: a packet
   scenario's fingerprint is its wire digest
   (:class:`repro.bench.digest.WireDigest` -- every frame, its time,
   link, fate and headers, plus end-of-run completions and switch
   counters); the event count beside it is an implementation count.
2. **A gate that can fail** -- ``python -m repro gate`` exits 1 on
   drift and 2 when no verdict is possible, never 0 by default.

The slowest scenarios (``clos_slice``, ``pause_storm``) are exercised by
``python -m repro gate`` and CI's dark- and armed-path gates rather
than here, to keep the tier-1 suite quick.  ``clos_pod`` (the
fabric-scale check) *is* pinned here despite its cost: it is the only
scenario that exercises cross-podset ECMP over the full three-tier path,
so drift in it must fail tier-1, not just CI.
"""

import json

import pytest

from repro.__main__ import main
from repro.bench import SCENARIOS, check
from repro.bench.gate import PIN_PATH, load_pins
from repro.bench.digest import digest

#: Scenarios cheap enough to re-run inside the tier-1 suite.  The two
#: flowsim_* entries pin the flow-level tier the same way the packet
#: scenarios pin the packet engine (their fingerprints digest the
#: engine's integer run tuple, completion CRC included).
FAST_SCENARIOS = (
    "engine_churn",
    "single_flow",
    "tcp_baseline",
    "incast_tor",
    "flowsim_churn",
    "flowsim_clos",
)


def assert_reproduces_pin(name, **observed):
    """``check`` one scenario (``observed``: hubs / out_dir) and fail,
    naming the fields, unless it reproduced its pin; returns the row."""
    (row,) = check([name], **observed)
    assert row.moved == (), (
        "scenario %r drifted from benchmarks/BASELINE.json in %s -- a "
        "change altered simulation behavior" % (name, ", ".join(row.moved))
    )
    return row


class TestFingerprintPinning:
    @pytest.mark.parametrize("name", FAST_SCENARIOS)
    def test_matches_checked_in_baseline(self, name):
        assert_reproduces_pin(name)

    def test_clos_pod_matches_checked_in_baseline(self):
        assert_reproduces_pin("clos_pod")

    def test_engine_reports_one_dispatch_per_event(self):
        # The two vestigial properties perfbench's sim.* counts read.
        from repro.sim import Simulator

        sim = Simulator()
        for delay in (3, 1, 2):
            sim.schedule0(delay, lambda: None)
        sim.run_until_idle()
        assert sim.dispatches == sim.events_fired == 3
        assert sim.elided_events == 0

    def test_baseline_covers_every_scenario(self):
        pins = load_pins()
        assert pins["seed"] == 1
        assert set(pins["scenarios"]) == set(SCENARIOS)

    def test_repeat_is_deterministic_in_process(self):
        first = SCENARIOS["single_flow"].run(seed=1)
        second = SCENARIOS["single_flow"].run(seed=1)
        assert first.fingerprint == second.fingerprint
        assert first.events == second.events

    def test_seeds_diverge(self):
        # The seed must actually steer the run (loss pattern, ECMP ports),
        # otherwise "seeded" benchmarks would be measuring one trajectory.
        assert (
            SCENARIOS["single_flow"].run(seed=1).fingerprint
            != SCENARIOS["single_flow"].run(seed=2).fingerprint
        )


class TestTheGateCanFail:
    """Exit status through ``python -m repro gate``: 1 drift, 2 no verdict possible."""

    @pytest.fixture
    def pins(self):
        return load_pins()

    def test_drift_is_exit_1_and_names_the_field(self, pins, tmp_path, capsys):
        pins["scenarios"]["single_flow"]["fingerprint"] = "0" * 16
        altered = tmp_path / "altered.json"
        altered.write_text(json.dumps(pins))
        assert main(["gate", "single_flow", "--baseline", str(altered)]) == 1
        (row,) = capsys.readouterr().out.splitlines()
        assert "DRIFT: fingerprint" in row and "events" not in row.split("DRIFT")[1]

    def test_missing_pin_file_is_exit_2_in_one_line(self, capsys):
        assert main(["gate", "single_flow", "--baseline", "/nonexistent.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        (line,) = captured.err.splitlines()
        assert "/nonexistent.json: " in line

    def test_unpinned_scenario_is_exit_2(self, pins, tmp_path, capsys):
        del pins["scenarios"]["single_flow"]
        incomplete = tmp_path / "incomplete.json"
        incomplete.write_text(json.dumps(pins))
        assert main(["gate", "single_flow", "--baseline", str(incomplete)]) == 2
        assert "single_flow" in capsys.readouterr().err

    def test_unknown_scenario_is_exit_2(self, capsys):
        assert main(["gate", "no_such_scenario"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "no_such_scenario" in line

    def test_unpinned_seed_has_no_verdict(self, capsys):
        assert main(["gate", "single_flow", "--seed", "2"]) == 0
        captured = capsys.readouterr()
        assert "DRIFT" not in captured.out + captured.err
        assert "no verdict" in captured.out

    def test_pin_rewrites_the_baseline_file(self, pins, tmp_path, capsys):
        del pins["scenarios"]["engine_churn"]
        target = tmp_path / "pins.json"
        target.write_text(json.dumps(pins))
        assert main(["gate", "engine_churn", "--pin", "--baseline", str(target)]) == 0
        assert target.read_text() == open(PIN_PATH).read()  # merged, same bytes
        assert capsys.readouterr().out.splitlines()[0].endswith("  new pin")

    def test_pin_names_what_it_overwrote(self, pins, tmp_path, capsys):
        pinned = pins["scenarios"]["engine_churn"]
        fingerprint, events = pinned["fingerprint"], pinned["events"]
        pinned.update(fingerprint="0" * 16, events=events - 1)
        target = tmp_path / "pins.json"
        target.write_text(json.dumps(pins))
        for expected in (
            "fingerprint %s -> %s, events %d -> %d" % ("0" * 16, fingerprint, events - 1, events),
            "unchanged",
        ):
            assert main(["gate", "engine_churn", "--pin", "--baseline", str(target)]) == 0
            assert capsys.readouterr().out.splitlines()[0].endswith("  " + expected)
        assert target.read_text() == open(PIN_PATH).read()


def test_digest_is_stable_and_order_sensitive():
    assert digest((1, 2, 3)) == digest((1, 2, 3))
    assert digest((1, 2, 3)) != digest((3, 2, 1))
    assert len(digest((1,))) == 16

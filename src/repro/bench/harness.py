"""Measurement harness: wall clock and report emission.

``run_benchmarks`` times each scenario ``repeat`` times (best-of wall
time — the minimum is the least noisy estimator of intrinsic cost),
derives events/sec and packets/sec, compares against the checked-in
baseline (``benchmarks/BASELINE.json``), and emits the schema-validated
``BENCH_simulator.json``.  Where the time goes per layer is
``perfbench/run.py --trace 1``'s job, not this harness's.

The report stamps :func:`repro.campaign.cache.code_version` — the digest
of every file under ``src/repro`` — so a result is always attributable
to the exact code that produced it.
"""

import json
import os
import platform
import time

from repro.bench.scenarios import SCENARIOS
from repro.bench.schema import SCHEMA_ID, validate_report

def run_benchmarks(names=None, seed=1, repeat=3, progress=None, warmup=True):
    """Time the named scenarios (all of them by default).

    Each scenario gets one *untimed* warmup execution first (unless
    ``warmup=False``): the first run pays allocator growth, lazy imports
    and branch-predictor/cache cold starts that the steady-state runs do
    not, and letting it into the sample was a reliable source of phantom
    "regressions" on fingerprint-identical code.

    Returns the ``scenarios`` mapping of the report: per scenario, the
    counters, best-of-``repeat`` wall time, derived rates and fingerprint.
    """
    names = list(names) if names else list(SCENARIOS)
    results = {}
    for name in names:
        scenario = SCENARIOS[name]
        if progress:
            progress("%-14s %s ..." % (name, scenario.title))
        walls = []
        run = None
        if warmup:
            scenario.run(seed)
        for _ in range(max(1, repeat)):
            started = time.perf_counter()
            run = scenario.run(seed)
            walls.append(time.perf_counter() - started)
        best = min(walls)
        entry = {
            "title": scenario.title,
            "paper_ref": scenario.paper_ref,
            "seed": seed,
            "events": run.events,
            "dispatches": run.dispatches,
            "packets": run.packets,
            "sim_ns": run.sim_ns,
            "wall_s": round(best, 4),
            "wall_s_all": [round(w, 4) for w in walls],
            "events_per_sec": round(run.events / best, 1),
            "packets_per_sec": round(run.packets / best, 1) if run.packets else 0.0,
            # Machine-independent cost: callbacks dispatched per
            # delivered packet (0.0 for packet-free scenarios).
            "events_per_packet": (
                round(run.dispatches / run.packets, 4) if run.packets else 0.0
            ),
            "fingerprint": run.fingerprint,
        }
        for key, value in run.detail.items():
            entry[key] = round(value, 3) if isinstance(value, float) else value
        if progress:
            progress(
                "%-14s %8.3fs  %11s events/s  fp=%s"
                % (name, best, "{:,.0f}".format(entry["events_per_sec"]), run.fingerprint)
            )
        results[name] = entry
    return results


def collect_artifacts(hub, scenarios, out_dir, seed=1, progress=None):
    """One extra *untimed* observed pass per already-benchmarked scenario.

    ``hub`` is :data:`repro.obs.TELEMETRY` or :data:`repro.obs.TRACE`.
    An armed run is the dark run byte for byte -- the telemetry poll is
    an engine observer tick, not an event, and the hooks only read -- so
    the observed pass must reproduce the timed pass's fingerprint, and
    this function asserts it.  Collection is still a separate pass
    because the receivers cost wall time (and tracing memory) the timing
    loop in :func:`run_benchmarks` should not include.  Artifacts land
    as ``<scenario>-<i>.<plane>.jsonl`` under ``out_dir``; each scenario
    entry gains a block named after the plane (artifact paths + the
    plane's headline counts; extra keys ``repro-bench/1`` permits).
    """
    for name, entry in scenarios.items():
        with hub.collect("bench:%s" % name, out_dir, name) as collection:
            run = SCENARIOS[name].run(seed)
        assert run.fingerprint == entry["fingerprint"], (
            "%s: observation perturbed the run (%s armed)" % (name, hub.name))
        entry[hub.name] = dict(collection.headline(), artifacts=collection.paths)
        if progress:
            progress("%-14s %s" % (name, collection.describe()))
    return scenarios


def load_baseline(path):
    """Load ``benchmarks/BASELINE.json``; returns None when absent."""
    if not path or not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def compare_to_baseline(scenarios, baseline):
    """Per-scenario speedup and fingerprint agreement vs the baseline.

    Each row also carries ``noise`` -- this run's relative wall-clock
    spread, ``(max - min) / min`` over the timed repeats -- and
    ``within_noise``: true when ``|speedup - 1|`` is smaller than that
    spread.  A speedup inside the run's own jitter band is not evidence
    of a regression (or an improvement); consumers should treat such
    rows as "unchanged" rather than alerting on them.
    """
    comparison = {}
    if not baseline:
        return comparison
    base_scenarios = baseline.get("scenarios", {})
    for name, entry in scenarios.items():
        base = base_scenarios.get(name)
        if not base:
            continue
        speedup = round(entry["events_per_sec"] / base["events_per_sec"], 3)
        walls = entry.get("wall_s_all") or [entry["wall_s"]]
        noise = round((max(walls) - min(walls)) / min(walls), 3)
        row = {
            "baseline_events_per_sec": base["events_per_sec"],
            "speedup": speedup,
            "noise": noise,
            "within_noise": abs(speedup - 1.0) <= noise,
            "fingerprint_match": entry["fingerprint"] == base["fingerprint"],
        }
        base_epp = base.get("events_per_packet")
        if base_epp:
            row["baseline_events_per_packet"] = base_epp
            # Machine-independent, and exactly 1.0 while the model fires
            # the baseline's events: CI fails on anything else.
            row["events_per_packet_ratio"] = round(
                entry["events_per_packet"] / base_epp, 4
            )
        comparison[name] = row
    return comparison


def build_report(scenarios, baseline=None, repeat=3):
    """Assemble (and schema-validate) the full report object."""
    from repro.campaign.cache import code_version

    report = {
        "schema": SCHEMA_ID,
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "code_version": code_version(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeat": repeat,
        "scenarios": scenarios,
        "baseline": baseline,
        "comparison": compare_to_baseline(scenarios, baseline),
    }
    validate_report(report)
    return report


def write_report(report, path):
    """Write the report as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_baseline(scenarios, path):
    """Record the current numbers as the new baseline file.

    Only the fields future runs compare against are kept, so the
    baseline survives harness-report schema evolution.
    """
    from repro.campaign.cache import code_version

    baseline = {
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "code_version": code_version(),
        "python": platform.python_version(),
        "note": (
            "Pre-PR hot-path baseline. events_per_sec is machine-relative; "
            "fingerprints are machine-independent and pinned by tests/test_bench.py."
        ),
        "scenarios": {
            name: {
                "events_per_sec": entry["events_per_sec"],
                "events": entry["events"],
                "dispatches": entry["dispatches"],
                "packets": entry["packets"],
                "events_per_packet": entry["events_per_packet"],
                "wall_s": entry["wall_s"],
                "fingerprint": entry["fingerprint"],
            }
            for name, entry in scenarios.items()
        },
    }
    with open(path, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path

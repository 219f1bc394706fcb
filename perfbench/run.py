"""perfbench: host-time benchmark of the simulator.

One measured invocation::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name and unit, checks the simulated outcome, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  Other modes::

    python3 perfbench/run.py --aa [--seed N]    the suite twice, compared
    python3 perfbench/run.py --selftest         tiny-scale consistency check
    python3 perfbench/run.py --pin              rewrite expected.json (seed 1)

Everything runs in this one process, pinned to one core; the only child
processes are the fresh interpreters that time the imports.
"""

import argparse
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
INTERACTIONS = os.path.join(HERE, "interactions.json")
EXPECTED_SEED = 1

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def use_checkout_source():
    """Put this checkout's ``src`` first on the path and make sure that is
    where ``repro`` comes from (an installed copy would measure other code)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("perfbench: no src/repro next to %s; run from a full checkout" % HERE)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: repro imported from %s, not from %s" % (repro.__file__, SRC))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_expected():
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED) as handle:
        return json.load(handle)


def drift_lines(result, expected):
    """Differences between this run's outcome and the pinned one.  Drift
    is reported, never failed: a later change may alter behaviour on
    purpose and cannot edit this directory."""
    pinned = expected.get(result.workload)
    if result.seed != expected.get("seed") or pinned is None or result.reference is None:
        return []
    lines = []
    if pinned["fingerprint"] != result.reference.fingerprint:
        lines.append(
            "drift: fingerprint %s, pinned %s"
            % (result.reference.fingerprint, pinned["fingerprint"])
        )
    for name, value in result.reference.counts.items():
        if pinned["counts"].get(name) != value:
            lines.append("drift: %s = %r, pinned %r" % (name, value, pinned["counts"].get(name)))
    return lines


def print_result(result, expected):
    mode = "traced" if result.trace else "untraced"
    print("perfbench %s seed=%d %s" % (result.workload, result.seed, mode))
    for name, (value, unit) in result.metrics.items():
        print("  %-44s %18.6f %s" % (name, value, unit))
    for note in result.notes:
        print("  # " + note)
    if result.reference is not None:
        print("  fingerprint %s" % result.reference.fingerprint)
        if not result.trace:
            for name, value in result.reference.counts.items():
                if value:
                    print("  count %-38s %r" % (name, value))
        # The same, for programs (--aa reads it back).
        print("outcome " + json.dumps(
            {"fingerprint": result.reference.fingerprint, "counts": result.reference.counts},
            sort_keys=True))
    for line in drift_lines(result, expected):
        print("  " + line)
    print("  operations: %d attempted, %d failed" % (result.attempted, result.failed))
    for failure in result.failures:
        print("  FAILED " + failure)


def contract_line(result):
    return json.dumps(
        {
            "correct": result.failed == 0,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in result.metrics.items()
            },
        }
    )


def measure_one(args):
    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    measure.pin_to_one_core()
    if args.trace:
        result = measure.traced(workload, args.seed, SRC)
    else:
        result = measure.untraced(workload, args.seed, args.seconds, SRC)
    print_result(result, load_expected())
    if not result.metrics:
        print("perfbench: no repeat succeeded, nothing to report", file=sys.stderr)
        return 1
    print(contract_line(result))
    return 0


def run_aa(args):
    """The suite twice at one seed: same code, so every end-to-end metric
    must agree within its bound and every simulated count exactly.  Each
    measurement is its own invocation of this script, as the benchmark's
    users run it (peak RSS is per process)."""
    import subprocess

    from workloads import WORKLOADS

    benchmark = load_benchmark()
    sets = []
    for label in "AB":
        results = {}
        for name in WORKLOADS:
            print("set %s: %s ..." % (label, name), file=sys.stderr)
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            lines = done.stdout.splitlines()
            outcome = [line for line in lines if line.startswith("outcome ")]
            if done.returncode or not outcome:
                print(done.stdout + done.stderr, file=sys.stderr)
                print("A/A: %s produced no result" % name)
                return 1
            results[name] = (json.loads(lines[-1]), json.loads(outcome[0][len("outcome "):]))
        sets.append(results)
    ok = True
    print("A/A at seed %d (ratio = B / A)" % args.seed)
    print("%-14s %-12s %14s %14s %8s %7s  %s" % (
        "workload", "metric", "A", "B", "ratio", "bound", "verdict"))
    for name in WORKLOADS:
        (a, a_outcome), (b, b_outcome) = sets[0][name], sets[1][name]
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            va, vb = a["metrics"][key]["value"], b["metrics"][key]["value"]
            worse = vb / va if metric["better"] == "lower" else va / vb
            passed = worse <= 1.0 + metric["bound"]
            ok = ok and passed
            print("%-14s %-12s %14.4f %14.4f %8.4f %7.2f  %s" % (
                name, key, va, vb, vb / va, metric["bound"], "pass" if passed else "FAIL"))
        same = a_outcome == b_outcome
        failed = a["failed"] + b["failed"]
        print("%-14s fingerprint %s and exact counts %s; %d failed operations" % (
            name, a_outcome["fingerprint"], "identical" if same else "DIFFER", failed))
        ok = ok and same and not failed
    print("A/A %s" % ("agrees" if ok else "DISAGREES"))
    return 0 if ok else 1


def run_pin(args):
    import measure
    from workloads import WORKLOADS

    pinned = {}
    for name, workload in WORKLOADS.items():
        repeat = measure.run_repeat(workload, EXPECTED_SEED, tiny=False)
        if repeat.problems:
            print("perfbench: %s failed, nothing pinned: %s" % (name, repeat.problems),
                  file=sys.stderr)
            return 1
        pinned[name] = {
            "units": repeat.outcome.units,
            "fingerprint": repeat.outcome.fingerprint,
            "counts": repeat.outcome.counts,
        }
        print("%-14s %s  %d %s" % (name, repeat.outcome.fingerprint,
                                   repeat.outcome.units, workload.unit))
    with open(EXPECTED, "w") as handle:
        json.dump({"seed": EXPECTED_SEED, **pinned}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("pinned seed %d in %s" % (EXPECTED_SEED, EXPECTED))
    return 0


def run_selftest(args):
    """Tiny-scale check that what BENCHMARK.json declares is what the
    benchmark emits.  Prints the problems; exit code 1 if there are any."""
    import layers
    import measure
    import probes
    from workloads import WORKLOADS

    benchmark = load_benchmark()
    problems = []
    declared_workloads = [w["name"] for w in benchmark["workloads"]]
    if declared_workloads != list(WORKLOADS):
        problems.append("workloads: declared %r, have %r" % (declared_workloads, list(WORKLOADS)))
    declared = {
        False: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        True: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    for section in declared.values():
        for name, unit in section.items():
            if not _NAME.match(name):
                problems.append("illegal metric name %r" % name)
            if not _UNIT.match(unit):
                problems.append("illegal unit %r for %s" % (unit, name))
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            if trace:
                result = measure.traced(workload, args.seed, SRC, tiny=True, probe_seconds=0.002)
            else:
                result = measure.untraced(workload, args.seed, 0, SRC, tiny=True)
            emitted = {key: unit for key, (_value, unit) in result.metrics.items()}
            if emitted != declared[trace]:
                missing = sorted(set(declared[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(declared[trace]))
                wrong = sorted(
                    k for k in set(emitted) & set(declared[trace])
                    if emitted[k] != declared[trace][k]
                )
                problems.append(
                    "%s trace=%d: missing %r, undeclared %r, unit mismatch %r"
                    % (name, trace, missing, extra, wrong)
                )
            if result.failed:
                problems.append("%s trace=%d: %r" % (name, trace, result.failures))
            if trace:
                idle = [p.name for p in probes.PROBES if not result.metrics.get(p.name, (0,))[0] > 0]
                if idle:
                    problems.append("%s: probes did not run: %r" % (name, idle))
            print("selftest %-14s trace=%d  %d metrics, %d/%d operations ok" % (
                name, trace, len(emitted), result.attempted - result.failed, result.attempted))
    with open(INTERACTIONS) as handle:
        interactions = json.load(handle)["interactions"]
    all_metrics = set(declared[False]) | set(declared[True])
    for index, entry in enumerate(interactions):
        for metric in entry["layer_metrics"] + entry["moves"]:
            known = metric in all_metrics or (
                metric.endswith(".*") and any(m.startswith(metric[:-1]) for m in all_metrics)
            )
            if not known:
                problems.append("interactions[%d]: unknown metric %r" % (index, metric))
        for workload in entry["on"] + entry.get("not_on", []):
            if workload not in WORKLOADS:
                problems.append("interactions[%d]: unknown workload %r" % (index, workload))
    other = layers.modules_in_other(SRC)
    print("src/repro modules attributed to layer 'other' (%d files):" % len(other))
    packages = {}
    for relative in other:
        packages.setdefault(relative.rpartition("/")[0] or ".", []).append(relative)
    for package, files in sorted(packages.items()):
        names = ", ".join(f.rpartition("/")[2] for f in files)
        print("  %-14s %s" % (package + "/", names))
    print("CI step a later change can add:")
    print("  - run: python3 perfbench/run.py --selftest")
    for problem in problems:
        print("PROBLEM " + problem)
    print("selftest %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="clos_bulk, rack_rpc, flowsim_dc or engine_timers")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="timed repeats continue until their timed regions add up to this "
        "(never fewer than five repeats)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true", help="run the suite twice and compare")
    parser.add_argument("--selftest", action="store_true", help="tiny-scale consistency check")
    parser.add_argument("--pin", action="store_true", help="rewrite expected.json for seed 1")
    args = parser.parse_args(argv)

    use_checkout_source()
    if args.aa:
        return run_aa(args)
    if args.selftest:
        return run_selftest(args)
    if args.pin:
        return run_pin(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    return measure_one(args)


if __name__ == "__main__":
    sys.exit(main())

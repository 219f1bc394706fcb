"""CLI: ``python -m repro.bench [scenarios...] [options]``.

Examples::

    python -m repro.bench --all                   # full set -> BENCH_simulator.json
    python -m repro.bench clos_slice --repeat 5   # one scenario, more samples
    python -m repro.bench --list                  # what exists
    python -m repro.bench --all --write-baseline benchmarks/BASELINE.json
"""

import argparse
import json
import sys

from repro.bench.harness import (
    build_report,
    collect_artifacts,
    load_baseline,
    run_benchmarks,
    write_baseline,
    write_report,
)
from repro.bench.scenarios import SCENARIOS
from repro.obs import TELEMETRY, TRACE


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the simulator's hot path and track the results.",
    )
    parser.add_argument("scenarios", nargs="*", help="scenario names (default: --all)")
    parser.add_argument("--all", action="store_true", help="run every scenario")
    parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    parser.add_argument("--seed", type=int, default=1, help="scenario seed (default 1)")
    parser.add_argument(
        "--repeat",
        type=int,
        default=None,
        help="timing repeats, best-of (default: 5 when comparing against a "
        "baseline, else 3 -- the comparison verdict needs the extra samples "
        "to estimate run-to-run noise)",
    )
    parser.add_argument(
        "--no-warmup",
        action="store_true",
        help="skip the untimed warmup pass before each scenario's timing loop",
    )
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        help="also run each scenario once instrumented (untimed) and write "
        "telemetry artifacts to DIR (see docs/telemetry.md)",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        help="also run each scenario once with the causal tracing plane "
        "armed (untimed) and write trace artifacts to DIR (see "
        "docs/tracing.md)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_simulator.json",
        help="report path (default: BENCH_simulator.json)",
    )
    parser.add_argument(
        "--baseline",
        default="benchmarks/BASELINE.json",
        help="baseline to compare against (default: benchmarks/BASELINE.json)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="record this run as the new baseline file and exit",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="print the report without writing it"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, scenario in SCENARIOS.items():
            print("%-14s %-42s [%s]" % (name, scenario.title, scenario.paper_ref))
        return 0

    names = args.scenarios or None
    if args.all or not names:
        names = list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        parser.error(
            "unknown scenario(s) %s; try --list" % ", ".join(repr(n) for n in unknown)
        )

    # Comparison verdicts quote run-to-run noise, so the comparing path
    # defaults to more samples than a plain measurement or a baseline
    # re-record does.
    comparing = not args.write_baseline and load_baseline(args.baseline) is not None
    repeat = args.repeat if args.repeat is not None else (5 if comparing else 3)

    def progress(line):
        print(line, file=sys.stderr)

    scenarios = run_benchmarks(
        names,
        seed=args.seed,
        repeat=repeat,
        progress=progress,
        warmup=not args.no_warmup,
    )

    for hub, out_dir in ((TELEMETRY, args.telemetry), (TRACE, args.trace)):
        if out_dir:
            collect_artifacts(
                hub, scenarios, out_dir, seed=args.seed, progress=progress
            )

    if args.write_baseline:
        path = write_baseline(scenarios, args.write_baseline)
        print("baseline written: %s" % path)
        return 0

    report = build_report(
        scenarios, baseline=load_baseline(args.baseline), repeat=repeat
    )
    if args.no_write:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        write_report(report, args.out)
        print("report written: %s" % args.out)
    for name, row in sorted(report["comparison"].items()):
        flag = "" if row["fingerprint_match"] else "  !! FINGERPRINT DRIFT"
        if not flag and row.get("within_noise"):
            flag = "  ~ within noise (spread %.1f%%)" % (row["noise"] * 100.0)
        print(
            "%-18s %6.2fx vs baseline (%s -> %s events/s)%s"
            % (
                name,
                row["speedup"],
                "{:,.0f}".format(row["baseline_events_per_sec"]),
                "{:,.0f}".format(report["scenarios"][name]["events_per_sec"]),
                flag,
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CLI: ``python -m repro.bench [scenarios...] [options]``.

Examples::

    python -m repro.bench --all                 # all nine against their pins
    python -m repro.bench single_flow --trace D # same verdict, trace artifact in D
    python -m repro.bench --list                # what exists
    python -m repro.bench --all --pin           # behaviour changed on purpose: re-pin

Exit status: 0 every scenario reproduced its pin (or ``--seed`` is not
the pinned seed: fingerprints, no verdict), 1 drift, 2 no verdict
possible -- unknown scenario, or a missing / unreadable / incomplete pin
file -- said in one line on stderr.
"""

import argparse
import sys

from repro.bench.gate import PIN_PATH, GateError, check, write_pins
from repro.bench.scenarios import SCENARIOS
from repro.obs import TELEMETRY, TRACE


def _print_row(row):
    if row.moved is None:
        verdict = "(no verdict)"
    elif row.moved:
        verdict = "DRIFT: " + ", ".join(row.moved)
    else:
        verdict = "ok"
    print("%-14s %s %9d events %8d packets  %s"
          % (row.name, row.fingerprint, row.events, row.packets, verdict), flush=True)
    for collection in row.collections:
        print("%-14s %s" % ("", collection.describe()), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the pinned scenarios and compare each to its pin.",
    )
    parser.add_argument("scenarios", nargs="*", help="scenario names (default: --all)")
    parser.add_argument("--all", action="store_true", help="run every scenario")
    parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    parser.add_argument(
        "--seed", type=int, default=1,
        help="scenario seed (default 1; a seed the pin file does not hold "
        "prints fingerprints without a verdict)",
    )
    parser.add_argument(
        "--telemetry", metavar="DIR",
        help="run with the telemetry plane armed and write its artifacts to "
        "DIR (see docs/telemetry.md)",
    )
    parser.add_argument(
        "--trace", metavar="DIR",
        help="run with the causal tracing plane armed and write its "
        "artifacts to DIR (see docs/tracing.md)",
    )
    parser.add_argument(
        "--baseline", default=PIN_PATH, metavar="PATH",
        help="pin file to compare against (default: this checkout's "
        "benchmarks/BASELINE.json)",
    )
    parser.add_argument(
        "--pin", action="store_true",
        help="record instead of compare: rewrite the --baseline file with "
        "this run's fingerprints and counts",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, scenario in SCENARIOS.items():
            print("%-14s %-42s [%s]" % (name, scenario.title, scenario.paper_ref))
        return 0

    names = None if args.all else args.scenarios
    dirs = {
        hub: out_dir
        for hub, out_dir in ((TELEMETRY, args.telemetry), (TRACE, args.trace))
        if out_dir
    }
    try:
        rows = check(
            names, args.seed, tuple(dirs), dirs,
            baseline=None if args.pin else args.baseline, progress=_print_row,
        )
        if args.pin:
            write_pins(rows, args.seed, args.baseline)
    except GateError as error:
        print("repro.bench: %s" % error, file=sys.stderr)
        return 2
    if args.pin:
        print("pinned %d scenario(s) at seed %d: %s" % (len(rows), args.seed, args.baseline))
        return 0
    drifted = [row.name for row in rows if row.moved]
    if drifted:
        print("DRIFT vs %s: %s" % (args.baseline, ", ".join(drifted)), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

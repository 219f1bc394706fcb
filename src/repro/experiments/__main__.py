"""CLI: regenerate the paper's tables and figures from the shell.

    python -m repro.experiments --list
    python -m repro.experiments E1 E11          # by id
    python -m repro.experiments deadlock        # by name fragment
    python -m repro.experiments --all --csv-dir results/

Each experiment prints the regenerated table; ``--csv-dir`` also writes
one CSV per experiment.  For parallel, cached, resumable sweeps over
the same catalogue, use ``python -m repro.campaign`` instead.
"""

import argparse
import os
import sys
import time

from repro.experiments.catalog import CATALOG, resolve_tokens


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables/figures of 'RDMA over Commodity Ethernet at Scale'.",
    )
    parser.add_argument("which", nargs="*", help="experiment ids (E1..E11, A1..A7) or name fragments")
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument("--csv-dir", help="also write one CSV per experiment here")
    parser.add_argument(
        "--telemetry-dir",
        help="collect fabric telemetry per experiment; writes "
        "<id>-<i>.telemetry.jsonl here (see docs/telemetry.md)",
    )
    parser.add_argument(
        "--trace-dir",
        help="collect causal traces per experiment; writes "
        "<id>-<i>.trace.jsonl here (see docs/tracing.md)",
    )
    args = parser.parse_args(argv)

    if args.list or (not args.which and not args.all):
        for entry in CATALOG.values():
            print("%-4s %-24s %s" % (entry.exp_id, entry.runner_name, entry.description))
        return 0

    if args.all:
        selected = list(CATALOG)
    else:
        selected, unmatched = resolve_tokens(args.which)
        if unmatched:
            print("no experiment matches %r (try --list)" % unmatched[0], file=sys.stderr)
            return 2

    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)

    for exp_id in selected:
        entry = CATALOG[exp_id]
        runner = entry.resolve()
        started = time.time()
        if args.telemetry_dir:
            from repro import telemetry

            telemetry.arm(telemetry.TelemetryConfig(label=exp_id))
            try:
                result = runner()
            finally:
                telemetry.disarm()
            sessions = telemetry.drain()
            paths = telemetry.write_artifacts(
                sessions, args.telemetry_dir, exp_id.lower()
            )
        elif args.trace_dir:
            from repro import tracing

            tracing.arm(tracing.TraceConfig(label=exp_id))
            try:
                result = runner()
            finally:
                tracing.disarm()
            trace_sessions = tracing.drain()
            trace_paths = tracing.write_artifacts(
                trace_sessions, args.trace_dir, exp_id.lower()
            )
            sessions, paths = [], []
        else:
            sessions, paths = [], []
            result = runner()
        print(result.format_table())
        print("[%s finished in %.1fs]" % (exp_id, time.time() - started))
        print()
        if paths:
            print(
                "telemetry: %d artifact(s), %d incident(s) -> %s"
                % (len(paths), telemetry.incident_count(sessions), args.telemetry_dir)
            )
        if args.trace_dir and not args.telemetry_dir:
            ops = sum(
                tracing.summary_of(records).get("ops_traced", 0)
                for records in trace_sessions
            )
            print(
                "trace: %d artifact(s), %d op(s) -> %s"
                % (len(trace_paths), ops, args.trace_dir)
            )
        if args.csv_dir:
            path = os.path.join(args.csv_dir, "%s.csv" % exp_id.lower())
            result.to_csv(path)
            print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

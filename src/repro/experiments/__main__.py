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
import contextlib
import os
import sys
import time

from repro.experiments.catalog import CATALOG, resolve_tokens
from repro.obs import TELEMETRY, TRACE


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
        with contextlib.ExitStack() as stack:
            collections = [
                stack.enter_context(hub.collect(exp_id, out_dir, exp_id.lower()))
                for hub, out_dir in (
                    (TELEMETRY, args.telemetry_dir), (TRACE, args.trace_dir))
                if out_dir
            ]
            result = runner()
        print(result.format_table())
        print("[%s finished in %.1fs]" % (exp_id, time.time() - started))
        print()
        for collection in collections:
            print(collection.describe())
        if args.csv_dir:
            path = os.path.join(args.csv_dir, "%s.csv" % exp_id.lower())
            result.to_csv(path)
            print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

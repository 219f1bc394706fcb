"""``python -m repro.flowsim`` -- run the flow-level simulator at scale.

Subcommands::

    scale      the F1 datacenter scenario (4096-host Clos, 50k+ flows)
    figure7    the F2 cross-check against the analytic Clos model

``scale --repeat N`` reruns the identical scenario and demands
byte-identical fingerprints -- the determinism check CI leans on.
"""

import argparse
import sys
import time

from repro.experiments.flowsim_scale import run_flowsim_figure7, run_flowsim_scale


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.flowsim",
        description="Flow-level fast-path simulator scenarios",
    )
    sub = parser.add_subparsers(dest="command")

    scale = sub.add_parser("scale", help="datacenter-scale Clos run (F1)")
    _scale_args(scale)
    # `python -m repro.flowsim --seed 2` (no subcommand) runs scale.
    _scale_args(parser)

    fig7 = sub.add_parser("figure7", help="flowsim vs analytic Clos model (F2)")
    fig7.add_argument("--seed", type=int, default=1)
    return parser


def _scale_args(parser):
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", default="storage")
    parser.add_argument("--podsets", type=int, default=8)
    parser.add_argument("--tors", type=int, default=16, help="ToRs per podset")
    parser.add_argument("--hosts", type=int, default=32, help="hosts per ToR")
    parser.add_argument("--flows-per-pair", type=int, default=13)
    parser.add_argument(
        "--interval-us", type=int, default=2000,
        help="rate-update interval (0 = exact mode)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="rerun N times and require identical fingerprints",
    )
    parser.add_argument(
        "--budget-s", type=float, default=None,
        help="fail if any run's wall time exceeds this many seconds",
    )


def _cmd_scale(args):
    fingerprints = []
    for attempt in range(args.repeat):
        started = time.monotonic()
        result = run_flowsim_scale(
            seed=args.seed,
            workload=args.workload,
            n_podsets=args.podsets,
            tors_per_podset=args.tors,
            hosts_per_tor=args.hosts,
            flows_per_pair=args.flows_per_pair,
            rate_update_interval_us=args.interval_us,
        )
        wall = time.monotonic() - started
        row = result.rows()[0]
        fingerprints.append(row["fingerprint"])
        superseded = result.run.n_superseded
        print(
            "run %d/%d: wall=%.1fs hosts=%d flows=%d completed=%d "
            "events=%d superseded=%d (%.1f%%) recomputes=%d sim=%.1fms "
            "fingerprint=%s"
            % (
                attempt + 1, args.repeat, wall, row["hosts"], row["flows"],
                row["completed"], row["events"], superseded,
                100.0 * superseded / row["events"] if row["events"] else 0.0,
                row["recomputes"], row["sim_ms"], row["fingerprint"],
            )
        )
        sys.stdout.flush()
        if row["completed"] != row["flows"]:
            print("FAIL: %d flow(s) never completed"
                  % (row["flows"] - row["completed"]))
            return 1
        if args.budget_s is not None and wall > args.budget_s:
            print("FAIL: wall time %.1fs exceeds budget %.1fs"
                  % (wall, args.budget_s))
            return 1
    if len(set(fingerprints)) > 1:
        print("FAIL: fingerprints diverged across identical runs: %s"
              % ", ".join(fingerprints))
        return 1
    if args.repeat > 1:
        print("deterministic: %d identical fingerprints" % args.repeat)
    return 0


def _cmd_figure7(args):
    result = run_flowsim_figure7(seed=args.seed)
    print(result.format_table())
    by_view = {row["view"]: row for row in result.rows()}
    rel_err = by_view["model-paths"]["max_rel_err"]
    if rel_err > 1e-6:
        print("FAIL: flowsim diverges from the analytic max-min allocation "
              "(max rel err %.2e)" % rel_err)
        return 1
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "figure7":
        return _cmd_figure7(args)
    return _cmd_scale(args)


if __name__ == "__main__":
    sys.exit(main())
